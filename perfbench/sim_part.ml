(* The deterministic simulator on the exp2-shape BST: 8 processes on the
   i7-4770 model, prefilled to half the key range, each process running
   operations until a fixed virtual duration.  Cycles per operation are
   exact (a pure function of the seed); host time is what the simulator
   itself costs. *)

type cfg = {
  range : int;
  ins : int;
  del : int;
  nprocs : int;
  duration : int;  (** virtual cycles *)
  seed : int;
}

type result = {
  setup_s : float;
  host_s : float;  (** CPU time of Sim.run alone *)
  ops : int;
  virtual_time : int;
  steps : int;
  context_switches : int;
  cache : Machine.Cache.stats;
  minor_words : float;
  check : string option;
}

let run (module RM : Reclaim.Intf.RECORD_MANAGER) ~scheme (c : cfg) =
  let module F = Workload.Set_adapter.Face (RM) in
  let module S = F.Bst in
  let t0 = Pb.cpu_ns () in
  let group = Runtime.Group.create ~seed:c.seed c.nprocs in
  let heap = Memory.Heap.create () in
  let rm = RM.create (Reclaim.Intf.Env.create group heap) in
  (* The prefill plus room for what 8 processes retire and recycle
     within the run. *)
  let s = S.create rm ~capacity:((c.range / 2) + 50_000) in
  let ctx0 = Runtime.Group.ctx group 0 in
  let size =
    Set_part.prefill ~seed:c.seed ~range:c.range (fun key ->
        S.insert s ctx0 ~key ~value:key)
  in
  let setup_s = float (Pb.cpu_ns () - t0) /. 1e9 in
  let ops = Array.make c.nprocs 0 and delta = Array.make c.nprocs 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| c.seed; pid; 41 |] in
    while Runtime.Ctx.now ctx < c.duration do
      let key = 1 + Random.State.int rng c.range in
      let r = Random.State.int rng 100 in
      if r < c.ins then begin
        if S.insert s ctx ~key ~value:key then delta.(pid) <- delta.(pid) + 1
      end
      else if r < c.ins + c.del then begin
        if S.delete s ctx key then delta.(pid) <- delta.(pid) - 1
      end
      else ignore (S.contains s ctx key);
      ops.(pid) <- ops.(pid) + 1
    done
  in
  let w0 = Gc.minor_words () in
  let h0 = Pb.cpu_ns () in
  let r =
    Sim.run ~machine:Machine.Config.intel_i7_4770 group
      (Array.init c.nprocs body)
  in
  let host_s = float (Pb.cpu_ns () - h0) /. 1e9 in
  let minor_words = Gc.minor_words () -. w0 in
  let expect = size + Array.fold_left ( + ) 0 delta in
  let check =
    match S.check_invariants s with
    | exception e -> Some (scheme ^ ": invariant walk: " ^ Printexc.to_string e)
    | () when S.size s <> expect ->
        Some (Printf.sprintf "%s: size %d, expected %d" scheme (S.size s) expect)
    | () -> None
  in
  {
    setup_s;
    host_s;
    ops = Array.fold_left ( + ) 0 ops;
    virtual_time = r.Sim.virtual_time;
    steps = r.Sim.steps;
    context_switches = r.Sim.context_switches;
    cache = r.Sim.cache_stats;
    minor_words;
    check;
  }
