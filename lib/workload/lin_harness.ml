(** Bounded-exploration harness: small fixed workloads on each (scheme,
    structure) cell of the matrix, recorded as histories and driven through
    {!Lincheck.Explore} / {!Lincheck.Checker}.

    Unlike {!Trial}, which runs a fixed {e duration} (so the operation count
    depends on the schedule), every process here runs a fixed per-process
    operation sequence derived only from the seed — the program under test
    is identical across schedules, which is what makes systematic
    exploration meaningful and every recorded preemption schedule
    replayable.

    Exploration configs are deliberately tiny (a few processes, a handful
    of operations, a small key range) with one hardware context per process
    so the [`Systematic] chooser fully controls the interleaving: with more
    processes than contexts the round-robin quantum would preempt behind
    the explorer's back. *)

open Reclaim
module H = Lincheck.History

type config = {
  nprocs : int;
  ops_per_proc : int;
  key_range : int;
  prefill : int;  (** elements inserted (and recorded) before the run *)
  seed : int;
  capacity : int;
  params : Intf.Params.t;  (** reclamation knobs; {!explore_params} default *)
}

(* Aggressive reclamation knobs, as in the sanitizer fuzz: tiny blocks and
   thresholds of 1 so grace periods expire and scans run within a few
   operations — otherwise no schedule short enough to explore would ever
   free anything.  ThreadScan keeps its delete-buffer threshold out of
   reach: its mid-run signal-scan is unsound for traversals that cross
   retired records (paper §3), so its cell checks the no-scan protocol. *)
let explore_params =
  {
    Intf.Params.default with
    Intf.Params.block_capacity = 4;
    check_thresh = 1;
    incr_thresh = 1;
    pool_cap_blocks = 2;
    hp_slots = (2 * Ds.Skiplist.max_level) + 8;
    hp_retire_factor = 1;
    suspect_blocks = 1;
    st_segment_accesses = 4;
    ts_buffer_blocks = 1000;
  }

let default_config =
  {
    nprocs = 3;
    ops_per_proc = 5;
    key_range = 4;
    prefill = 2;
    seed = 7;
    capacity = 4096;
    params = explore_params;
  }

let ds_names = [ "list"; "bst"; "skiplist"; "queue" ]

let spec_of_ds = function
  | "queue" -> Lincheck.Spec.queue
  | "stack" -> Lincheck.Spec.stack
  | _ -> Lincheck.Spec.set

module Mk (RM : Intf.RECORD_MANAGER) = struct
  module Face = Set_adapter.Face (RM)
  module Q = Ds.Ms_queue.Make (RM)

  (* The queue face, open so tests can plug a seeded mutant in place of the
     real Michael-Scott queue and watch the checker reject it. *)
  module type QUEUE = sig
    type t

    val create : RM.t -> capacity:int -> t
    val enqueue : t -> Runtime.Ctx.t -> int -> unit
    val dequeue : t -> Runtime.Ctx.t -> int option
  end

  let fresh cfg =
    let group = Runtime.Group.create ~seed:cfg.seed cfg.nprocs in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params:cfg.params group heap in
    let rm = RM.create env in
    (group, rm)

  let machine_for cfg = Machine.Config.tiny ~contexts:cfg.nprocs ()

  let record rec_ ctx op f wrap =
    let pid = ctx.Runtime.Ctx.pid in
    let tok = H.invoke rec_ ~pid ~time:(Runtime.Ctx.now ctx) op in
    let r = f () in
    H.return_ rec_ tok ~time:(Runtime.Ctx.now ctx) (wrap r)

  (* One run of the set workload under [policy]; a fresh world every call,
     as stateless exploration requires.  The prefill runs uninstrumented
     (no scheduler hooks yet) but {e is} recorded: it is part of the
     history, so the checker's spec still starts from the empty set. *)
  let run_set (module S : Face.SET) ?(unreliable = false) cfg policy =
    let group, rm = fresh cfg in
    if unreliable then group.Runtime.Group.signals_unreliable <- true;
    let s = S.create rm ~capacity:cfg.capacity in
    let rec_ = H.recorder ~nprocs:cfg.nprocs in
    let ctx0 = Runtime.Group.ctx group 0 in
    for i = 1 to cfg.prefill do
      let key = 1 + ((i * 7) mod cfg.key_range) in
      record rec_ ctx0 (H.Add key)
        (fun () -> S.insert s ctx0 ~key ~value:key)
        (fun b -> H.RBool b)
    done;
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| cfg.seed; pid; 0x11c |] in
      for _ = 1 to cfg.ops_per_proc do
        let key = 1 + Random.State.int rng cfg.key_range in
        match Random.State.int rng 3 with
        | 0 ->
            record rec_ ctx (H.Add key)
              (fun () -> S.insert s ctx ~key ~value:key)
              (fun b -> H.RBool b)
        | 1 ->
            record rec_ ctx (H.Remove key)
              (fun () -> S.delete s ctx key)
              (fun b -> H.RBool b)
        | _ ->
            record rec_ ctx (H.Mem key)
              (fun () -> S.contains s ctx key)
              (fun b -> H.RBool b)
      done
    in
    ignore
      (Sim.run ~machine:(machine_for cfg) ~max_steps:2_000_000 ~policy group
         (Array.init cfg.nprocs body));
    H.snapshot rec_

  (* Queue workload: unique values per enqueue (pid-tagged), so a duplicated
     or lost dequeue is visible to the FIFO spec. *)
  let run_queue_with (module Q : QUEUE) cfg policy =
    let group, rm = fresh cfg in
    let q = Q.create rm ~capacity:cfg.capacity in
    let rec_ = H.recorder ~nprocs:cfg.nprocs in
    let ctx0 = Runtime.Group.ctx group 0 in
    for i = 1 to cfg.prefill do
      record rec_ ctx0 (H.Enq (900 + i))
        (fun () -> Q.enqueue q ctx0 (900 + i))
        (fun () -> H.RUnit)
    done;
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| cfg.seed; pid; 0x40e |] in
      let next = ref 0 in
      for _ = 1 to cfg.ops_per_proc do
        if Random.State.int rng 5 < 3 then begin
          incr next;
          let v = (pid * 1000) + !next in
          record rec_ ctx (H.Enq v)
            (fun () -> Q.enqueue q ctx v)
            (fun () -> H.RUnit)
        end
        else
          record rec_ ctx H.Deq
            (fun () -> Q.dequeue q ctx)
            (fun r -> H.RVal r)
      done
    in
    ignore
      (Sim.run ~machine:(machine_for cfg) ~max_steps:2_000_000 ~policy group
         (Array.init cfg.nprocs body));
    H.snapshot rec_

  let run_queue cfg policy = run_queue_with (module Q) cfg policy

  (* The lazy skip list holds spin locks across its update windows; under
     DEBRA+ those windows are signal-masked, which is only sound with
     acknowledgement-based (unreliable) signal delivery — see
     lib/ds/skiplist.ml. *)
  let run ~ds cfg policy =
    match ds with
    | "list" -> run_set Face.hm_list cfg policy
    | "bst" -> run_set Face.bst cfg policy
    | "skiplist" ->
        run_set Face.skiplist ~unreliable:RM.supports_crash_recovery cfg
          policy
    | "queue" -> run_queue cfg policy
    | ds -> invalid_arg ("Lin_harness: unknown structure " ^ ds)
end

(* One run function per registry scheme, under the registry's pairing
   (shared pool behind the reusing schemes, so premature frees really
   recycle memory and use-after-free has teeth). *)
let packs =
  List.map
    (fun e ->
      let module RM = (val e.Registry.rm) in
      let module P = Mk (RM) in
      (Registry.name e, P.run))
    Registry.all

let scheme_names = Registry.names

let pack_of scheme =
  match List.assoc_opt scheme packs with
  | Some run -> run
  | None -> invalid_arg ("Lin_harness: unknown scheme " ^ scheme)

(** One run of a matrix cell under an explicit policy — the replay path. *)
let run_once ~ds ~scheme cfg policy = pack_of scheme ~ds cfg policy

(** Bounded exploration of one matrix cell; every schedule's history is
    checked against the structure's sequential spec, and any exception the
    run raises (an arena's use-after-free / double-free trap, a wedge)
    rejects the cell with the schedule that triggered it. *)
let explore ?(budget = 2) ?(max_runs = 2000) ?(wide = false) ?log
    ?(workers = 1) ~ds ~scheme cfg =
  let run = pack_of scheme in
  let spec = spec_of_ds ds in
  Lincheck.Explore.explore ~budget ~max_runs ~wide ?log ~domains:workers
    ~run_one:(fun policy -> run ~ds cfg policy)
    ~check:(fun h ->
      match Lincheck.Checker.check spec h with
      | Lincheck.Checker.Linearizable -> None
      | v -> Some (Lincheck.Checker.verdict_to_string v))
    ()

let verdict_summary = function
  | Lincheck.Explore.Pass st ->
      Printf.sprintf "pass: %d schedules, %d branch points%s"
        st.Lincheck.Explore.runs st.Lincheck.Explore.branch_points
        (if st.Lincheck.Explore.truncated then " (TRUNCATED)" else "")
  | Lincheck.Explore.Fail { stats; schedule; reason; _ } ->
      Printf.sprintf "FAIL after %d schedules\n  schedule: %s\n  reason: %s"
        stats.Lincheck.Explore.runs
        (Lincheck.Explore.schedule_to_string schedule)
        reason
