(** Quiescent-state-based reclamation (McKenney & Slingwine; paper §3).

    QSBR generalizes EBR: instead of assuming every operation boundary is a
    quiescent state, the {e application} declares quiescent points by
    calling [enter_qstate] wherever it holds no pointers — which may be
    once per operation, once per batch, or at arbitrary program points.
    That makes QSBR applicable to code that caches pointers across
    operations (the application just declares its quiescent points less
    often), at the price of manual placement.

    This implementation keeps a per-process counter of passed quiescent
    states and a per-process limbo list; a retired record is freed once
    every process has passed through a quiescent state after the retire.
    Concretely: each process publishes a monotone quiescent counter;
    [retire] snapshots the vector clock of all counters, and a record is
    freed when every process has advanced past its snapshot entry.  To keep
    the per-retire cost O(1), snapshots are taken per {e batch} of retires
    (one limbo bag per batch, paper-style amortization).

    Like EBR and DEBRA it is not fault tolerant: a process that stops
    declaring quiescent states blocks reclamation forever — but unlike
    EBR/DEBRA there is no notion of "between operations": only explicit
    declarations count. *)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type batch = {
    bags : Bag.Blockbag.t array;  (* per arena *)
    snapshot : int array;  (* counter vector at batch close; [||] while open *)
  }

  type local = {
    mutable open_batch : batch;
    mutable closed : batch list;  (* oldest last *)
    mutable since_check : int;
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    counters : Runtime.Shared_array.t;  (* per-process quiescent counters *)
    locals : local array;
    batch_records : int;  (* close the open batch after this many retires *)
  }

  let name = "qsbr"
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let protect_ignores_verify = true
  let sandboxed = false

  let fresh_batch env pid =
    {
      bags =
        Array.init Memory.Ptr.max_arenas (fun _ ->
            Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
      snapshot = [||];
    }

  let create env pool =
    let n = Intf.Env.nprocs env in
    {
      env;
      pool;
      counters =
        Runtime.Shared_array.create
          ~padded:env.Intf.Env.params.Intf.Params.padded_announcements n;
      locals =
        Array.init n (fun pid ->
            { open_batch = fresh_batch env pid; closed = []; since_check = 0 });
      batch_records = env.Intf.Env.params.Intf.Params.block_capacity;
    }

  let batch_size b =
    Array.fold_left (fun acc bag -> acc + Bag.Blockbag.size bag) 0 b.bags

  (* A closed batch is safe once every process' counter exceeds the
     snapshot: each has passed a quiescent point after the batch closed. *)
  let batch_safe t ctx b =
    let n = Intf.Env.nprocs t.env in
    let rec go i =
      i >= n
      || Runtime.Shared_array.get ctx t.counters i > b.snapshot.(i)
         && go (i + 1)
    in
    Array.length b.snapshot > 0 && go 0

  (* Whole blocks only: the grace period covered the entire batch, so even
     the partial head block leaves in bulk. *)
  let free_batch t ctx b =
    Array.iter
      (fun bag ->
        ignore
          (Bag.Blockbag.drain_blocks bag ~into:(fun blk ->
               P.release_block t.pool ctx blk)))
      b.bags

  (* Declaring a quiescent state is one shared counter increment; reclaim
     checks are amortized here. *)
  let enter_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    Runtime.Shared_array.set ctx t.counters pid
      (Runtime.Shared_array.peek t.counters pid + 1);
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q;
    l.since_check <- l.since_check + 1;
    if l.since_check >= t.env.Intf.Env.params.Intf.Params.check_thresh then begin
      l.since_check <- 0;
      match List.rev l.closed with
      | [] -> ()
      | oldest :: _ ->
          if batch_safe t ctx oldest then begin
            let released = batch_size oldest in
            free_batch t ctx oldest;
            if released > 0 && Intf.Env.listening t.env then
              Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep released);
            l.closed <-
              List.filter (fun b -> not (b == oldest)) l.closed
          end
    end

  let leave_qstate _t _ctx = ()

  let is_quiescent _t _ctx =
    (* QSBR has no instantaneous quiescent bit: quiescence is a point event
       (passing through [enter_qstate]), not a state. *)
    false

  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let close_batch t ctx l =
    let n = Intf.Env.nprocs t.env in
    let snapshot =
      Array.init n (fun i -> Runtime.Shared_array.get ctx t.counters i)
    in
    l.closed <- { l.open_batch with snapshot } :: l.closed;
    l.open_batch <- fresh_batch t.env ctx.Runtime.Ctx.pid

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.open_batch.bags.(Memory.Ptr.arena_id p) p;
    if batch_size l.open_batch >= t.batch_records then close_batch t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    List.fold_left
      (fun acc b -> acc + batch_size b)
      (batch_size l.open_batch) l.closed

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals

  (* QSBR's reclamation clock is the quiescent-counter vector: a process'
     lag is how far its counter trails the most advanced one. *)
  let epoch_lag t =
    let n = Intf.Env.nprocs t.env in
    let counters =
      Array.init n (fun i -> Runtime.Shared_array.peek t.counters i)
    in
    let mx = Array.fold_left max 0 counters in
    Array.map (fun c -> mx - c) counters

  let flush t ctx =
    Array.iter
      (fun l ->
        List.iter (fun b -> free_batch t ctx b) l.closed;
        l.closed <- [];
        free_batch t ctx l.open_batch)
      t.locals

  (* Allocation-failure path: close the open batch so its grace period
     starts now, then free {e every} closed batch of this process whose
     snapshot every counter has passed — not just the amortized oldest-first
     one.  A process that stopped declaring quiescent states (stalled or
     crashed) pins every snapshot taken after its last declaration, so under
     such a fault this frees nothing: QSBR's honest degradation. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    if batch_size l.open_batch > 0 then close_batch t ctx l;
    let safe, blocked = List.partition (batch_safe t ctx) l.closed in
    let released =
      List.fold_left (fun acc b -> acc + batch_size b) 0 safe
    in
    List.iter (free_batch t ctx) safe;
    l.closed <- blocked;
    if released > 0 && Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep released);
    released
end
