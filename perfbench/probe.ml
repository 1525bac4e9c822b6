(* Layer probes: calibrated plain loops over single library calls.

   A probe maps an iteration count [n] to a thunk running the call [n]
   times; whatever the thunk needs is built before the clock starts.  The
   iteration count is calibrated so one rep lasts about [target_ns], then
   [reps] reps are timed and the per-call minimum, median and spread
   reported.  No harness sits between the clock and the loop: a
   framework's per-call overhead would swamp calls of a few nanoseconds. *)

type sample = {
  min_ns : float;
  median_ns : float;
  spread : float;  (** interquartile range / median over the reps *)
  words : float;  (** minor words allocated per call *)
}

let sink = ref 0

(* CPU time, so a rep during which the domain was descheduled does not
   read slow. *)
let time_ns probe n =
  let run = probe n in
  let t = Pb.cpu_ns () in
  run ();
  float (Pb.cpu_ns () - t)

let reps = 9
let target_ns = 2_000_000

let measure ?parent ~name (probe : int -> unit -> unit) =
  let rec calibrate n =
    let t = time_ns probe n in
    if t >= float target_ns /. 8. || n >= 1 lsl 30 then
      max 1 (int_of_float (float n *. float target_ns /. Float.max t 1.))
    else calibrate (n * 4)
  in
  let n = calibrate 64 in
  let run = probe n in
  let w0 = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. w0) /. float n in
  let per_call =
    Array.init reps (fun _ ->
        match parent with
        | None -> time_ns probe n /. float n
        | Some parent ->
            Span.with_span ~parent ("probe." ^ name) (fun _ ->
                time_ns probe n /. float n))
  in
  let s = Pb.sorted_floats per_call in
  { min_ns = s.(0); median_ns = Pb.median s; spread = Pb.spread s; words }

(* A fresh single-structure environment for the probes.  Two processes,
   as in the benchmark's domain runs; the second stays quiescent. *)
let env ?(capacity = 1024) () =
  let group = Runtime.Group.create ~seed:1 2 in
  let heap = Memory.Heap.create () in
  let arena =
    Memory.Heap.new_arena heap ~name:"probe" ~mut_fields:2 ~const_fields:1
      ~capacity
  in
  (group, heap, arena)

let atomic_get () =
  let a = Atomic.make 1 in
  fun n () ->
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + Atomic.get a
    done;
    sink := !acc

let svar_get ctx =
  let v = Runtime.Svar.make 1 in
  fun n () ->
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + Runtime.Svar.get ctx v
    done;
    sink := !acc

let svar_cas ctx =
  let v = Runtime.Svar.make 0 in
  fun n () ->
    for _ = 1 to n do
      ignore (Runtime.Svar.cas ctx v ~expect:0 0)
    done

let arena_read ctx arena =
  let p = Memory.Arena.claim_fresh ctx arena in
  fun n () ->
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + Memory.Arena.read ctx arena p 0
    done;
    sink := !acc

let emit ctx heap n () =
    for _ = 1 to n do
      Memory.Heap.emit heap ctx Memory.Smr_event.Enter_q
    done

(* Record Manager primitives, each on a fresh manager.  [alloc_retire]
   under [none] never frees, so its arena is sized per call from [n]. *)
module Rm (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  let make ?capacity () =
    let group, heap, arena = env ?capacity () in
    let rm = RM.create (Reclaim.Intf.Env.create group heap) in
    (Runtime.Group.ctx group 0, arena, rm)

  let leave_enter () =
    let ctx, _, rm = make () in
    fun n () ->
      for _ = 1 to n do
        RM.leave_qstate rm ctx;
        RM.enter_qstate rm ctx
      done

  let protect_unprotect () =
    let ctx, arena, rm = make () in
    let target = RM.alloc rm ctx arena in
    let verify () = true in
    fun n () ->
      for _ = 1 to n do
        ignore (RM.protect rm ctx target ~verify);
        RM.unprotect rm ctx target
      done

  let alloc_retire () n =
    let ctx, arena, rm = make ~capacity:(n + 1024) () in
    fun () ->
    for _ = 1 to n do
      RM.leave_qstate rm ctx;
      let p = RM.alloc rm ctx arena in
      RM.retire rm ctx p;
      RM.enter_qstate rm ctx
    done
end

(* The eleven schemes, as the scheme zoo and skip-list matrices pair
   them with allocators and pools. *)
let schemes : (string * (module Reclaim.Intf.RECORD_MANAGER)) list =
  let open Workload.Schemes in
  [
    ("none", (module RM1_none));
    ("ebr", (module RM2_ebr));
    ("qsbr", (module RM2_qsbr));
    ("debra", (module RM2_debra));
    ("debra_plus", (module RM2_debra_plus));
    ("hp", (module RM2_hp));
    ("rc", (module RM2_rc));
    ("vbr", (module RM2_vbr));
    ("hyaline", (module RM2_hyaline));
    ("threadscan", (module RM2_ts));
    ("stacktrack", (module RM2_st));
  ]
