(** ThreadScan (Alistarh, Leiserson, Matveev, Shavit, SPAA'15) — the other
    signal-based scheme, developed concurrently with DEBRA+ (paper §3).

    Shape of the algorithm: processes register the pointers held in their
    private memory (here: an explicit root registry updated by [protect] /
    [unprotect] with plain writes — no fences, which is TS's selling point
    over HP).  When a process' delete buffer grows past a threshold it
    becomes the collector: it takes a global lock, signals every other
    process, and each signal handler pushes the handler's current roots into
    a shared mark bag and acknowledges.  The collector waits for the
    acknowledgments, then frees every record of its own buffer that no
    process had marked.

    Two deviations from the original, both documented here:
    - the original scans the thread's stack and registers; OCaml offers no
      raw stack scanning, so roots are explicit (DESIGN.md §2);
    - the collector skips processes that are quiescent (between operations,
      hence with empty root sets), where the original waits for everyone;
      without this, a process that terminates would block collection
      forever.  The blocking behaviour the paper criticizes is preserved for
      any process that stalls {e inside} an operation.

    The paper's deeper criticism — that TS is unsafe for data structures
    where a traversal can cross from one retired record to another — is
    reproduced verbatim by [test_threadscan.ml]'s use-after-free scenario.
    TS is therefore kept out of the BST/list benchmarks, as in the paper. *)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = {
    mirror : int array;  (* our registered roots *)
    bags : Bag.Blockbag.t array;  (* delete buffers, per arena *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    locals : local array;
    quiescent : Runtime.Shared_array.t;  (* 1 = between operations *)
    acked : Runtime.Shared_array.t;
    glock : int Runtime.Svar.t;
    mark_bag : Bag.Shared_intbag.t ref;
    scanning : Bag.Hash_set.t array;
    threshold : int;  (* records *)
    k : int;
  }

  let name = "threadscan"
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let protect_ignores_verify = true
  let sandboxed = false

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let k = params.Intf.Params.hp_slots in
    let arenas = Memory.Ptr.max_arenas in
    let t =
      {
        env;
        pool;
        locals =
          Array.init n (fun pid ->
              {
                mirror = Array.make k 0;
                bags =
                  Array.init arenas (fun _ ->
                      Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
              });
        quiescent = Runtime.Shared_array.create ~padded:true n;
        acked = Runtime.Shared_array.create ~padded:true n;
        glock = Runtime.Svar.make 0;
        mark_bag = ref (Bag.Shared_intbag.create ());
        scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
        threshold =
          params.Intf.Params.ts_buffer_blocks * params.Intf.Params.block_capacity;
        k;
      }
    in
    for pid = 0 to n - 1 do
      Runtime.Shared_array.poke t.quiescent pid 1
    done;
    (* The scan handler: report current roots, then acknowledge.  Unlike
       DEBRA+'s handler it never aborts the interrupted operation. *)
    Array.iter
      (fun ctx ->
        ctx.Runtime.Ctx.handler <-
          (fun ctx ->
            let pid = ctx.Runtime.Ctx.pid in
            let bag = !(t.mark_bag) in
            Array.iter
              (fun r -> if r <> 0 then Bag.Shared_intbag.push ctx bag r)
              t.locals.(pid).mirror;
            Runtime.Shared_array.set ctx t.acked pid 1))
      env.Intf.Env.group.Runtime.Group.ctxs;
    t

  let leave_qstate t ctx =
    Runtime.Shared_array.set ctx t.quiescent ctx.Runtime.Ctx.pid 0;
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q

  let unprotect_all t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    Array.fill l.mirror 0 t.k 0

  let enter_qstate t ctx =
    unprotect_all t ctx;
    Runtime.Shared_array.set ctx t.quiescent ctx.Runtime.Ctx.pid 1;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent t ctx =
    Runtime.Shared_array.peek t.quiescent ctx.Runtime.Ctx.pid = 1

  (* Slot search in the local mirror (0 = free), as in Hp. *)
  let rec free_slot mirror i ~full =
    if i >= Array.length mirror then invalid_arg full
    else if mirror.(i) = 0 then i
    else free_slot mirror (i + 1) ~full

  let rec slot_of mirror p i =
    if i >= Array.length mirror then -1
    else if mirror.(i) = p then i
    else slot_of mirror p (i + 1)

  (* Root registration: one plain write, no fence — the signal round makes
     announcements visible instead. *)
  let protect t ctx p ~verify:_ =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let i =
      free_slot l.mirror 0
        ~full:"Threadscan.protect: out of root slots (raise hp_slots)"
    in
    l.mirror.(i) <- p;
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    Runtime.Ctx.work ctx 1;
    true

  let unprotect t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let i = slot_of l.mirror p 0 in
    if i >= 0 then begin
      if Intf.Env.listening t.env then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.mirror.(i) <- 0
    end;
    Runtime.Ctx.work ctx 1

  let is_protected t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    Array.exists (fun s -> s = p) l.mirror

  let collect ?(complete = false) t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let n = Intf.Env.nprocs t.env in
    let group = t.env.Intf.Env.group in
    (* Global collector lock (blocking — the paper's progress critique).
       The holder's pid+1 is stored so that waiters can detect a collector
       that crashed inside the collection and break the lock instead of
       spinning forever. *)
    let rec acquire () =
      if not (Runtime.Svar.cas ctx t.glock ~expect:0 (pid + 1)) then begin
        let h = Runtime.Svar.get ctx t.glock in
        if h > 0 && Runtime.Group.is_crashed group (h - 1) then
          ignore (Runtime.Svar.cas ctx t.glock ~expect:h 0)
        else Runtime.Ctx.work ctx 1;
        acquire ()
      end
    in
    acquire ();
    t.mark_bag := Bag.Shared_intbag.create ();
    for other = 0 to n - 1 do
      if other <> pid then begin
        Runtime.Shared_array.set ctx t.acked other 0;
        if
          not
            (Runtime.Group.send_signal t.env.Intf.Env.group ~from:ctx
               ~target:other)
        then
          (* ESRCH: the target crashed.  Its roots died with it — a dead
             process never dereferences again — so it is acked vacuously. *)
          Runtime.Shared_array.set ctx t.acked other 1
      end
    done;
    (* Wait for every non-quiescent surviving process to report its roots.
       A process that crashes after the signal was sent is skipped the same
       way; one that stalls non-quiescent blocks the collection — the
       progress failure the paper criticizes, preserved faithfully. *)
    let rec wait_for other =
      if other < n then
        if
          other = pid
          || Runtime.Shared_array.get ctx t.acked other = 1
          || Runtime.Shared_array.get ctx t.quiescent other = 1
          || Runtime.Group.is_crashed group other
        then wait_for (other + 1)
        else begin
          Runtime.Ctx.work ctx 1;
          wait_for other
        end
    in
    wait_for 0;
    let scanning = t.scanning.(pid) in
    Bag.Hash_set.clear scanning;
    ignore
      (Bag.Shared_intbag.drain ctx !(t.mark_bag) (fun r ->
           Bag.Hash_set.insert scanning r));
    Array.iter
      (fun r -> if r <> 0 then Bag.Hash_set.insert scanning r)
      t.locals.(pid).mirror;
    let released = ref 0 in
    Array.iter
      (fun bag ->
        released :=
          !released
          + Scan_util.partition_and_release ctx bag ~protected:scanning
              ~release_block:(fun b -> P.release_block t.pool ctx b);
        if complete then
          released :=
            !released
            + Scan_util.flush_bag ctx bag
                ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                ~release:(fun ctx p -> P.release t.pool ctx p)
                ~release_block:(fun b -> P.release_block t.pool ctx b))
      t.locals.(pid).bags;
    if !released > 0 && Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released);
    Runtime.Svar.set ctx t.glock 0;
    !released

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p) p;
    let total =
      Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags
    in
    if total >= t.threshold then ignore (collect t ctx)

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
    Bag.Hash_set.clear scanning;
    Array.iter
      (fun l ->
        Array.iter (fun r -> if r <> 0 then Bag.Hash_set.insert scanning r) l.mirror)
      t.locals;
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

  (* Allocation-failure path: run a full collection below the threshold,
     draining partial blocks too.  Degradation caveat, documented rather
     than papered over: the collection {e blocks} on any process stalled
     non-quiescent (and, under dropped signals, on any process whose signal
     never lands) — ThreadScan under memory pressure inherits the scheme's
     progress failure.  Crashed processes are skipped (see [collect]). *)
  let emergency_reclaim t ctx = collect ~complete:true t ctx
end
