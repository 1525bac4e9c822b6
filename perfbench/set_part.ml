(* Closed-loop set workloads on real domains: the EFRB BST under each
   scheme, prefilled to half its key range, then fixed-size reps in which
   every domain runs the same number of operations.  Fixed op counts, not
   a wall-clock window: a window trial ends mid-burst and its op count
   varies with the scheduler.

   A rep whose arena fills (Arena_full / Out_of_memory) yields no
   throughput sample; all its operations count as failed. *)

type cfg = {
  range : int;
  ins : int;  (** percent inserts *)
  del : int;  (** percent deletes; the rest are [contains] *)
  nprocs : int;
  ops_per_domain : int;
  reps : int;
  seed : int;
}

(* Instrumented-access and reclamation counters of one rep, summed over
   the group (Ctx.stats) — the per-layer counts of the traced run. *)
type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable fences : int;
  mutable allocs : int;
  mutable retires : int;
  mutable reclaimed : int;  (** left limbo: retired minus limbo growth *)
  mutable neutralized : int;
  mutable signals : int;
  mutable minor_words : float;  (** allocated by the worker domains *)
  mutable ops : int;
}

let zero () =
  {
    reads = 0;
    writes = 0;
    cas = 0;
    fences = 0;
    allocs = 0;
    retires = 0;
    reclaimed = 0;
    neutralized = 0;
    signals = 0;
    minor_words = 0.;
    ops = 0;
  }

let add_into a b =
  a.reads <- a.reads + b.reads;
  a.writes <- a.writes + b.writes;
  a.cas <- a.cas + b.cas;
  a.fences <- a.fences + b.fences;
  a.allocs <- a.allocs + b.allocs;
  a.retires <- a.retires + b.retires;
  a.reclaimed <- a.reclaimed + b.reclaimed;
  a.neutralized <- a.neutralized + b.neutralized;
  a.signals <- a.signals + b.signals;
  a.minor_words <- a.minor_words +. b.minor_words;
  a.ops <- a.ops + b.ops

type rep = {
  cpu_s : float array;  (** per domain: CPU time of its ops *)
  attempted : int;
  failed : int;  (** every op of a rep that hit a full arena *)
  counters : counters;
}

type cell = {
  setup_s : float;
  run_rep : rep:int -> spans:(Span.store array * int) option -> rep;
  run_mixed : rep:int -> spans:(Span.store array * int) option -> rep;
      (** one rep of [mixed] on the same structure *)
  check : unit -> string option;  (** [Some reason] on a broken structure *)
  limbo : unit -> int;
  records : unit -> int;  (** most records claimed from any one arena *)
}

let op_names =
  lazy (Array.map Span.intern [| "ds.insert"; "ds.delete"; "ds.contains" |])

(* Percent inserts and deletes of the rep that [run_mixed] makes: every
   operation kind occurs, whatever the workload's own mix. *)
let mixed = (25, 25)

(* Records each arena of a cell may ever claim: one per prefilled key,
   plus one per update of every rep, the mixed one included (under
   [none], which never frees, every update claims a fresh info record),
   and an eighth for updates that lose a race and claim again.  Reclaiming schemes recycle through their pool, and a
   few thousand records cover what sits in limbo. *)
let capacity ~reclaims (c : cfg) =
  let per_rep = c.ops_per_domain * c.nprocs / 100 in
  let churn =
    ((c.ins + c.del) * per_rep * c.reps) + ((fst mixed + snd mixed) * per_rep)
  in
  let prefill = c.range / 2 in
  if reclaims then prefill + min (churn + (churn / 8)) 50_000 + 1_000
  else prefill + churn + (churn / 8) + 1_000

(* Insert a seeded random half of the keys 1..range, each exactly once:
   an insert of a present key would still claim records under [none].
   Returns the number inserted. *)
let prefill ~seed ~range insert =
  let keys = Array.init range (fun i -> i + 1) in
  let rng = Random.State.make [| seed; 4242 |] in
  let half = range / 2 in
  for i = 0 to half - 1 do
    let j = i + Random.State.int rng (range - i) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k;
    if not (insert keys.(i)) then failwith "prefill: duplicate key"
  done;
  half

let make (module RM : Reclaim.Intf.RECORD_MANAGER) ~scheme ~reclaims (c : cfg)
    =
  let module F = Workload.Set_adapter.Face (RM) in
  let module S = F.Bst in
  let t0 = Pb.cpu_ns () in
  let group = Runtime.Group.create ~seed:c.seed c.nprocs in
  let heap = Memory.Heap.create () in
  let rm = RM.create (Reclaim.Intf.Env.create group heap) in
  let s = S.create rm ~capacity:(capacity ~reclaims c) in
  let ctx0 = Runtime.Group.ctx group 0 in
  let size =
    prefill ~seed:c.seed ~range:c.range (fun key ->
        S.insert s ctx0 ~key ~value:key)
  in
  let setup_s = float (Pb.cpu_ns () - t0) /. 1e9 in
  (* Expected size after every rep: prefill plus successful inserts minus
     successful deletes.  [None] once a rep failed midway. *)
  let expect = ref (Some size) in
  let run ~ins ~del ~rep ~spans =
    let n = c.nprocs in
    let ins_ok = Array.make n 0 and del_ok = Array.make n 0 in
    let words = Array.make n 0. and cpu = Array.make n 0. in
    Array.iter Runtime.Ctx.reset_stats group.Runtime.Group.ctxs;
    let insdel = ins + del and ops = c.ops_per_domain in
    (* Forced here: a lazy value forced from two domains at once raises. *)
    let names = Lazy.force op_names in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| c.seed; pid; rep; 41 |] in
      let w0 = Gc.minor_words () and c0 = Pb.cpu_ns () in
      let step () =
        let key = 1 + Random.State.int rng c.range in
        let r = Random.State.int rng 100 in
        if r < ins then begin
          if S.insert s ctx ~key ~value:key then
            ins_ok.(pid) <- ins_ok.(pid) + 1;
          0
        end
        else if r < insdel then begin
          if S.delete s ctx key then del_ok.(pid) <- del_ok.(pid) + 1;
          1
        end
        else begin
          ignore (S.contains s ctx key);
          2
        end
      in
      (match spans with
      | None ->
          for _ = 1 to ops do
            ignore (step ())
          done
      | Some (stores, parent) ->
          let st = stores.(pid) in
          for _ = 1 to ops do
            let t = Pb.now_ns () in
            let k = step () in
            ignore (Span.record st ~name:names.(k) ~parent t (Pb.now_ns ()))
          done);
      cpu.(pid) <- float (Pb.cpu_ns () - c0) /. 1e9;
      words.(pid) <- Gc.minor_words () -. w0
    in
    let limbo0 = RM.limbo_size rm in
    let r = Par.run group (Array.init n body) in
    let attempted = n * ops in
    let failed =
      if
        List.exists
          (function
            | Memory.Arena.Arena_full _ | Memory.Arena.Out_of_memory _ -> true
            | _ -> false)
          r.errors
      then attempted
      else 0
    in
    (match r.errors with
    | [] -> ()
    | e :: _ when failed = 0 -> raise e
    | _ -> ());
    expect :=
      (match !expect with
      | Some e when failed = 0 ->
          let sum a = Array.fold_left ( + ) 0 a in
          Some (e + sum ins_ok - sum del_ok)
      | _ -> None);
    let sum f = Runtime.Group.sum_stats group f in
    {
      cpu_s = cpu;
      attempted;
      failed;
      counters =
        {
          reads = sum (fun s -> s.Runtime.Ctx.reads);
          writes = sum (fun s -> s.Runtime.Ctx.writes);
          cas = sum (fun s -> s.Runtime.Ctx.cass);
          fences = sum (fun s -> s.Runtime.Ctx.fences);
          allocs = sum (fun s -> s.Runtime.Ctx.allocs);
          retires = sum (fun s -> s.Runtime.Ctx.retires);
          reclaimed =
            sum (fun s -> s.Runtime.Ctx.retires) - (RM.limbo_size rm - limbo0);
          neutralized = sum (fun s -> s.Runtime.Ctx.neutralized);
          signals = sum (fun s -> s.Runtime.Ctx.signals_sent);
          minor_words = Pb.fsum words;
          ops = attempted;
        };
    }
  in
  let check () =
    match S.check_invariants s with
    | exception e -> Some (scheme ^ ": invariant walk: " ^ Printexc.to_string e)
    | () -> (
        match !expect with
        | Some e when S.size s <> e ->
            Some (Printf.sprintf "%s: size %d, expected %d" scheme (S.size s) e)
        | _ -> None)
  in
  {
    setup_s;
    run_rep = run ~ins:c.ins ~del:c.del;
    run_mixed = run ~ins:(fst mixed) ~del:(snd mixed);
    check;
    limbo = (fun () -> RM.limbo_size rm);
    records =
      (fun () ->
        List.fold_left
          (fun a ar -> max a (Memory.Arena.total_allocs ar))
          0 (Memory.Heap.arenas heap));
  }
