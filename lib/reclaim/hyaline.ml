(** Hyaline-style reclamation (Nikolaev & Ravindran, SPAA'19 / PLDI'21):
    snapshot-free distributed reference counting over retire {e batches}.

    Where epoch schemes decide safety by comparing clocks and QSBR by
    vector-counter snapshots, Hyaline hands each sealed batch of retired
    records to the processes that might still reach it and lets them count
    themselves out: the batch carries one reference per charged process,
    every charged process drops its reference at its next operation
    boundary, and whoever drops the last reference frees the whole batch.
    No process ever scans another's announcements on the hot path, and
    retiring is O(1) amortized.

    Adaptation to this harness:

    - each announcement slot holds the {e birth era} of its process'
      current session (the global era clock value read when the session
      opened; 0 = quiescent).  The era clock advances once per sealed
      batch;
    - [retire] stamps the open batch with the era it observed — the
      batch's retire-era watermark;
    - sealing a batch charges exactly the processes whose slot is active
      {e and} whose session birth era does not exceed the batch's
      watermark.  A session born after every retire in the batch cannot
      reach its records (they were unlinked before the session opened, and
      the monotone era clock orders the two), so it is skipped — this
      per-slot era comparison is what keeps charging snapshot-free;
    - crashed processes are never charged, and [emergency_reclaim] revokes
      the references of processes that crashed while charged — the same
      dead-process discounting the crash-aware sanitizer applies — so a
      crash pins nothing;
    - references are dropped at both ends of the operation boundary
      ([enter_qstate]/[leave_qstate]); the physical free happens strictly
      outside the dropper's own session.

    Shared with the other epoch-style schemes: [allows_retired_traversal]
    (searches may cross retired records), blanket session protection, and
    pairing with [Alloc.Bump] + [Pool.Shared].

    The per-batch bookkeeping (reference counts, charge flags, pending
    lists) is host-side state guarded by one uninstrumented mutex so the
    domains backend can run the handoff from real parallel domains; its
    simulated cost is charged explicitly ([Runtime.Ctx.work]) where the
    protocol touches shared memory.  No instrumented operation runs while
    the mutex is held (the simulator may only switch processes at
    instrumented points, so a yield inside the critical section could
    self-deadlock). *)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type batch = {
    bags : Bag.Blockbag.t array;  (* per arena *)
    mutable size : int;  (* records; final once sealed *)
    mutable max_era : int;  (* retire-era watermark *)
    charges : bool array;  (* per-pid outstanding reference *)
    mutable rc : int;  (* outstanding references; set at seal *)
    mutable freed : bool;  (* claimed by exactly one freer *)
  }

  type local = {
    mutable open_batch : batch;
    mutable pending : batch list;  (* batches charged to this process *)
    mutable sealed : batch list;  (* batches this process sealed, unfreed *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    era : int Runtime.Svar.t;  (* advances once per sealed batch *)
    slots : Runtime.Shared_array.t;  (* session birth era; 0 = quiescent *)
    my_slot : int array;  (* local mirror of own slot *)
    locals : local array;
    batch_records : int;
    lock : Mutex.t;  (* host-side guard for rc/charges/pending/freed *)
  }

  let name = "hyaline"
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let protect_ignores_verify = true
  let sandboxed = false

  let fresh_batch env n pid =
    {
      bags =
        Array.init Memory.Ptr.max_arenas (fun _ ->
            Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
      size = 0;
      max_era = 0;
      charges = Array.make n false;
      rc = 0;
      freed = false;
    }

  let create env pool =
    let n = Intf.Env.nprocs env in
    {
      env;
      pool;
      era = Runtime.Svar.make 1;
      slots =
        Runtime.Shared_array.create
          ~padded:env.Intf.Env.params.Intf.Params.padded_announcements n;
      my_slot = Array.make n 0;
      locals =
        Array.init n (fun pid ->
            { open_batch = fresh_batch env n pid; pending = []; sealed = [] });
      batch_records = env.Intf.Env.params.Intf.Params.block_capacity;
      lock = Mutex.create ();
    }

  (* Empty a sealed batch's bags without ever touching the owner's block
     pool (the owner may be using it concurrently on the domains backend):
     full blocks leave whole, the partial head is popped in place. *)
  let free_batch t ctx b =
    Array.iter
      (fun bag ->
        ignore
          (Bag.Blockbag.move_all_full_blocks bag ~into:(fun blk ->
               P.release_block t.pool ctx blk));
        let rec go () =
          match Bag.Blockbag.pop bag with
          | Some p ->
              P.release t.pool ctx p;
              go ()
          | None -> ()
        in
        go ())
      b.bags;
    if b.size > 0 && Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep b.size)

  (* Drop this process' reference on every batch handed to it; returns the
     batches whose last reference we dropped (we own their freeing).  Host
     mutations under the lock, simulated cost charged after. *)
  let drop_references t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    if l.pending == [] then []
    else begin
      Mutex.lock t.lock;
      let mine = l.pending in
      l.pending <- [];
      let freeable =
        List.filter_map
          (fun b ->
            if b.charges.(pid) then begin
              b.charges.(pid) <- false;
              b.rc <- b.rc - 1;
              if b.rc = 0 && not b.freed then begin
                b.freed <- true;
                Some b
              end
              else None
            end
            else None)
          mine
      in
      Mutex.unlock t.lock;
      (* one shared decrement per handed-over batch *)
      Runtime.Ctx.work ctx (2 * List.length mine);
      freeable
    end

  (* Boundary order matters for the handoff to stay premature-free-safe:

     - on [leave_qstate] the slot is published {e before} the session-open
       event, so a session that is open is always visible to a sealer;
     - on [enter_qstate] the session-close event precedes the slot write,
       so a process that looks quiescent has really closed its session;
     - on [enter_qstate] the session-close event also precedes the
       reference drop: the drop yields (its simulated cost), and if another
       process consumed the now-last reference during that yield it would
       free the batch while this session still looks open;
     - a physical free only ever runs between the freer's own sessions. *)
  let leave_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let freeable = drop_references t ctx in
    List.iter (free_batch t ctx) freeable;
    let e = Runtime.Svar.get ctx t.era in
    t.my_slot.(pid) <- e;
    Runtime.Shared_array.set ctx t.slots pid e;
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q

  let enter_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q;
    let freeable = drop_references t ctx in
    t.my_slot.(pid) <- 0;
    Runtime.Shared_array.set ctx t.slots pid 0;
    List.iter (free_batch t ctx) freeable

  let is_quiescent t ctx = t.my_slot.(ctx.Runtime.Ctx.pid) = 0

  (* Being inside the session is the protection, as for every
     retired-traversal scheme. *)
  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  (* Seal the open batch: advance the era, snapshot the active slots, and
     hand the batch one reference per charged process.  A process is
     charged when its session was born no later than the batch's last
     retire (slot era <= watermark) — later sessions provably cannot reach
     the batch — and crashed processes are never charged. *)
  let seal t ctx l =
    let b = l.open_batch in
    if b.size > 0 then begin
      let n = Intf.Env.nprocs t.env in
      l.open_batch <- fresh_batch t.env n ctx.Runtime.Ctx.pid;
      let e = Runtime.Svar.get ctx t.era in
      ignore (Runtime.Svar.cas ctx t.era ~expect:e (e + 1));
      if Intf.Env.listening t.env then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (e + 1));
      let charged = ref 0 in
      for pid = 0 to n - 1 do
        let a = Runtime.Shared_array.get ctx t.slots pid in
        if
          a > 0 && a <= b.max_era
          && not (Runtime.Group.is_crashed t.env.Intf.Env.group pid)
        then begin
          b.charges.(pid) <- true;
          incr charged
        end
      done;
      Mutex.lock t.lock;
      b.rc <- !charged;
      if b.rc = 0 then b.freed <- true
      else
        Array.iteri
          (fun pid c ->
            if c then begin
              let lp = t.locals.(pid) in
              lp.pending <- b :: lp.pending
            end)
          b.charges;
      Mutex.unlock t.lock;
      if b.freed then free_batch t ctx b
      else
        l.sealed <- b :: List.filter (fun x -> not x.freed) l.sealed
    end

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let b = l.open_batch in
    (* stamp the watermark: one shared era read per retire *)
    let e = Runtime.Svar.get ctx t.era in
    if e > b.max_era then b.max_era <- e;
    Bag.Blockbag.add b.bags.(Memory.Ptr.arena_id p) p;
    b.size <- b.size + 1;
    if b.size >= t.batch_records then seal t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    List.fold_left
      (fun acc b -> if b.freed then acc else acc + b.size)
      l.open_batch.size l.sealed

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals

  (* A session's lag is how far the era clock moved since it opened. *)
  let epoch_lag t =
    let e = Runtime.Svar.peek t.era in
    Array.map (fun a -> if a = 0 then 0 else max 0 (e - a)) t.my_slot

  (* Quiescent shutdown.  Every surviving process has closed its session
     (and with it dropped its references); remaining references belong to
     crashed processes, which never access again — as for EBR, draining at
     shutdown cannot produce a use-after-free. *)
  let flush t ctx =
    Array.iter
      (fun l ->
        List.iter
          (fun b ->
            if not b.freed then begin
              b.freed <- true;
              b.rc <- 0;
              free_batch t ctx b
            end)
          l.sealed;
        l.sealed <- [];
        l.pending <- [];
        free_batch t ctx l.open_batch;
        l.open_batch.size <- 0)
      t.locals

  (* Allocation-failure path: seal our open batch so its countdown starts
     now, then revoke the references of crashed processes everywhere — a
     batch pinned only by the dead is freed on the spot.  References held
     by live sessions are honored: dropping them here would be a premature
     free.  Our own charge keeps our sealed batches pinned until our next
     boundary, so under no faults this can honestly return 0. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    if l.open_batch.size > 0 then seal t ctx l;
    let group = t.env.Intf.Env.group in
    let n = Intf.Env.nprocs t.env in
    if not (Runtime.Group.any_crashed group) then 0
    else begin
      Mutex.lock t.lock;
      let freeable = ref [] in
      Array.iter
        (fun lo ->
          List.iter
            (fun b ->
              if not b.freed then begin
                for pid = 0 to n - 1 do
                  if b.charges.(pid) && Runtime.Group.is_crashed group pid
                  then begin
                    b.charges.(pid) <- false;
                    b.rc <- b.rc - 1
                  end
                done;
                if b.rc = 0 then begin
                  b.freed <- true;
                  freeable := b :: !freeable
                end
              end)
            lo.sealed)
        t.locals;
      Mutex.unlock t.lock;
      let released =
        List.fold_left (fun acc b -> acc + b.size) 0 !freeable
      in
      List.iter (free_batch t ctx) !freeable;
      released
    end
end
