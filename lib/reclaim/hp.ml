(** Hazard pointers (Michael), tuned for throughput as in the paper's
    evaluation: each process keeps k announcement slots and a private bag of
    retired records, scanning all announcements only once the bag exceeds
    nk + Θ(nk) records so the amortized cost per retire is O(1).

    The per-access cost is the scheme's weakness: [protect] must announce
    the pointer, issue a full memory barrier so scanners cannot miss the
    announcement, and then verify that the record is still in the data
    structure.  When verification cannot be done reliably — which is the
    case for every data structure whose searches traverse retired records —
    the operation restarts, which is how the paper's evaluation applies HP
    (at the cost of the data structure's lock-freedom; see §3). *)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = {
    slots_mirror : int array;  (* local view of our announcement row *)
    bags : Bag.Blockbag.t array;  (* retired records, per arena *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    rows : Runtime.Shared_array.t array;  (* announcements, [pid] *)
    locals : local array;
    scanning : Bag.Hash_set.t array;
    retire_threshold : int;  (* records *)
    k : int;
  }

  let name = "hp"
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let protect_ignores_verify = false
  let sandboxed = false

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let k = params.Intf.Params.hp_slots in
    let arenas = Memory.Ptr.max_arenas in
    {
      env;
      pool;
      rows = Array.init n (fun _ -> Runtime.Shared_array.create k);
      locals =
        Array.init n (fun pid ->
            {
              slots_mirror = Array.make k 0;
              bags =
                Array.init arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
            });
      scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
      (* At least two blocks, so every scan frees at least one full block
         and the amortized cost per retire stays O(1). *)
      retire_threshold =
        max
          (2 * params.Intf.Params.block_capacity)
          (params.Intf.Params.hp_retire_factor * n * k);
      k;
    }

  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q

  (* Protection events bracket the window in which the announcement is
     visible to scanners: [Protect] is emitted after the announcing write,
     [Unprotect] before the retracting one.  A shadow checker's hazard set
     is then always a subset of what a concurrent scan can observe. *)

  let unprotect_all t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    for i = 0 to t.k - 1 do
      if l.slots_mirror.(i) <> 0 then begin
        l.slots_mirror.(i) <- 0;
        Runtime.Shared_array.set ctx t.rows.(pid) i 0
      end
    done

  (* Leaving an operation releases every hazard pointer. *)
  let enter_qstate t ctx =
    unprotect_all t ctx;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent _t _ctx = false

  (* Slot search in the local mirror (0 = free).  Top-level functions with
     explicit arguments, not closures local to [protect]/[unprotect]: a
     traversal step allocates nothing. *)
  let rec free_slot mirror i ~full =
    if i >= Array.length mirror then invalid_arg full
    else if mirror.(i) = 0 then i
    else free_slot mirror (i + 1) ~full

  let rec slot_of mirror p i =
    if i >= Array.length mirror then -1
    else if mirror.(i) = p then i
    else slot_of mirror p (i + 1)

  let protect t ctx p ~verify =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let p = Memory.Ptr.unmark p in
    let i =
      free_slot l.slots_mirror 0
        ~full:"Hp.protect: out of hazard-pointer slots (raise hp_slots)"
    in
    l.slots_mirror.(i) <- p;
    Runtime.Shared_array.set ctx t.rows.(pid) i p;
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    (* The barrier that makes the announcement visible before the record is
       re-verified — the cost HP pays on every newly reached record. *)
    Runtime.Ctx.fence ctx;
    if verify () then true
    else begin
      if Intf.Env.listening t.env then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.slots_mirror.(i) <- 0;
      Runtime.Shared_array.set ctx t.rows.(pid) i 0;
      false
    end

  let unprotect t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let p = Memory.Ptr.unmark p in
    let i = slot_of l.slots_mirror p 0 in
    if i >= 0 then begin
      if Intf.Env.listening t.env then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.slots_mirror.(i) <- 0;
      Runtime.Shared_array.set ctx t.rows.(pid) i 0
    end

  let is_protected t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    Array.exists (fun s -> s = p) l.slots_mirror

  let scan t ctx l =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    let released = ref 0 in
    Array.iter
      (fun bag ->
        released :=
          !released
          + Scan_util.partition_and_release ctx bag ~protected:scanning
              ~release_block:(fun b -> P.release_block t.pool ctx b))
      l.bags;
    if !released > 0 && Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released)

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p) p;
    let total = Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags in
    if total >= t.retire_threshold then scan t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    Array.iter
      (fun l ->
        Array.iter
          (fun b ->
            ignore
              (Scan_util.flush_bag ctx b
                 ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                 ~release:(fun ctx p -> P.release t.pool ctx p)
                 ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
          l.bags)
      t.locals

  (* Allocation-failure path: scan immediately, below the amortization
     threshold, and drain even the partial blocks of our own retired bags —
     everything not currently covered by a hazard pointer is freed.  HP's
     bound does not depend on other processes making progress, so this frees
     all but O(nk) records even under crashes and stalls. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    let released = ref 0 in
    Array.iter
      (fun b ->
        released :=
          !released
          + Scan_util.flush_bag ctx b
              ~keep:(fun p -> Bag.Hash_set.mem scanning p)
              ~release:(fun ctx p -> P.release t.pool ctx p)
              ~release_block:(fun blk -> P.release_block t.pool ctx blk))
      l.bags;
    if !released > 0 && Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released);
    !released
end
