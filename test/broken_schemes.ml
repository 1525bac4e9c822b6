(* Deliberately broken reclamation schemes, shared by the sanitizer fuzz
   (test_sanitizer.ml) and the linearizability / exploration suite
   (test_lincheck.ml).  Both suites must reject these mutants — the
   sanitizer by classifying the violation, the explorer by finding a
   schedule whose run trips the arena's use-after-free / double-free traps
   and printing it for replay. *)

open Reclaim

(* EBR with the grace period deleted: retire frees immediately.  Every
   retire happens inside the retirer's own session, so the very first free
   is flagged premature against the retire-time session snapshot. *)
module Broken_ebr (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P =
struct
  module Pool = P

  type t = { env : Intf.Env.t; pool : P.t }

  let name = "broken-ebr"
  let create env pool = { env; pool }
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let protect_ignores_verify = true
  let sandboxed = false
  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q
  let enter_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q
  let is_quiescent _t _ctx = false
  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    (* The bug: no grace period. *)
    P.release t.pool ctx p

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false
  let limbo_size _t = 0
  let limbo_per_proc t = Array.make (Intf.Env.nprocs t.env) 0
  let epoch_lag t = Array.make (Intf.Env.nprocs t.env) 0
  let flush _t _ctx = ()
  let emergency_reclaim _t _ctx = 0
end

(* HP with the post-announce validation deleted: announce, skip the fence
   and the verify, trust the pointer.  The scan itself is honest (it keeps
   every announced record) — the only bug is the protect/scan race the
   validation step exists to close, which surfaces as an access to a
   retired (or already freed) record under a too-late hazard. *)
module Broken_hp (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P =
struct
  module Pool = P

  type local = { bags : Bag.Blockbag.t array }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    rows : Runtime.Shared_array.t array;
    locals : local array;
    scanning : Bag.Hash_set.t array;
    threshold : int;
    k : int;
  }

  let name = "broken-hp"
  let supports_crash_recovery = false
  let allows_retired_traversal = false

  (* True of this mutant: its [protect] skips the validation step. *)
  let protect_ignores_verify = true
  let sandboxed = false

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let k = params.Intf.Params.hp_slots in
    {
      env;
      pool;
      rows = Array.init n (fun _ -> Runtime.Shared_array.create k);
      locals =
        Array.init n (fun pid ->
            {
              bags =
                Array.init Memory.Ptr.max_arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
            });
      scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
      threshold = max 8 (params.Intf.Params.hp_retire_factor * n * k);
      k;
    }

  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q

  let unprotect_all t ctx =
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    let row = t.rows.(ctx.Runtime.Ctx.pid) in
    for i = 0 to t.k - 1 do
      if Runtime.Shared_array.peek row i <> 0 then
        Runtime.Shared_array.set ctx row i 0
    done

  let enter_qstate t ctx =
    unprotect_all t ctx;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent _t _ctx = false

  let protect t ctx p ~verify:_ =
    let row = t.rows.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let rec free_slot i =
      if i >= t.k then invalid_arg "Broken_hp.protect: out of slots"
      else if Runtime.Shared_array.peek row i = 0 then i
      else free_slot (i + 1)
    in
    Runtime.Shared_array.set ctx row (free_slot 0) p;
    Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    (* The bug: no fence, no verify — the announcement may already be too
       late, and nobody checks. *)
    true

  let unprotect t ctx p =
    let row = t.rows.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let rec go i =
      if i < t.k then
        if Runtime.Shared_array.peek row i = p then begin
          Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
          Runtime.Shared_array.set ctx row i 0
        end
        else go (i + 1)
    in
    go 0

  let is_protected t ctx p =
    let row = t.rows.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let rec go i =
      i < t.k
      && (Runtime.Shared_array.peek row i = p || go (i + 1))
    in
    go 0

  let scan t ctx l =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    Array.iter
      (fun bag ->
        ignore
          (Scan_util.partition_and_release ctx bag ~protected:scanning
             ~release_block:(fun b -> P.release_block t.pool ctx b)))
      l.bags

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p) p;
    let total =
      Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags
    in
    if total >= t.threshold then scan t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let limbo_size t =
    Array.fold_left
      (fun acc l ->
        Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) acc l.bags)
      0 t.locals

  let limbo_per_proc t =
    Array.map
      (fun l -> Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags)
      t.locals

  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    Array.iter
      (fun l ->
        Array.iter
          (fun b ->
            ignore
              (Scan_util.flush_bag ctx b
                 ~keep:(fun _ -> false)
                 ~release:(fun ctx p -> P.release t.pool ctx p)
                 ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
          l.bags)
      t.locals

  let emergency_reclaim _t _ctx = 0
end

(* VBR with the version re-validation deleted: retire still reclaims full
   blocks immediately (that is VBR's whole point — no grace period), but
   [protect] trusts the pointer instead of re-checking the arena
   generation, and the scheme does not declare itself sandboxed, so the
   access-to-reclaimed-memory that real VBR turns into a checkpoint
   rollback is a fatal use-after-free here.  The first traversal that
   crosses a reclaimed block trips the arena's generation trap. *)
module Broken_vbr (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P =
struct
  module Pool = P

  type local = { bags : Bag.Blockbag.t array }

  type t = { env : Intf.Env.t; pool : P.t; locals : local array }

  let name = "broken-vbr"
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let protect_ignores_verify = true

  (* The bug, half one: no sandbox — stale accesses are not rolled back. *)
  let sandboxed = false

  let create env pool =
    {
      env;
      pool;
      locals =
        Array.init (Intf.Env.nprocs env) (fun pid ->
            {
              bags =
                Array.init Memory.Ptr.max_arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
            });
    }

  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q
  let enter_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q
  let is_quiescent _t _ctx = false

  (* The bug, half two: no version re-validation before the dereference. *)
  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let bag = l.bags.(Memory.Ptr.arena_id p) in
    Bag.Blockbag.add bag p;
    if Bag.Blockbag.size_in_blocks bag > 1 then
      ignore
        (Bag.Blockbag.move_all_full_blocks bag ~into:(fun blk ->
             P.release_block t.pool ctx blk))

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    Array.iter
      (fun l ->
        Array.iter
          (fun b ->
            ignore
              (Scan_util.flush_bag ctx b
                 ~keep:(fun _ -> false)
                 ~release:(fun ctx p -> P.release t.pool ctx p)
                 ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
          l.bags)
      t.locals

  let emergency_reclaim _t _ctx = 0
end

(* Hyaline with a batch-refcount accounting error: the seal initializes the
   reference count one short of the charged-session count (the classic lost
   reference).  With N in-flight readers charged, the count hits zero after
   only N-1 of them close their sessions, so the batch is freed while the
   last snapshotted session — often the retirer's own — is still open: a
   premature free, and a use-after-free for whoever is still traversing. *)
module Broken_hyaline (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P =
struct
  module Pool = P

  type batch = {
    bags : Bag.Blockbag.t array;
    mutable size : int;
    mutable max_era : int;
    charges : bool array;
    mutable rc : int;
    mutable freed : bool;
  }

  type local = {
    mutable open_batch : batch;
    mutable pending : batch list;
    mutable sealed : batch list;
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    era : int Runtime.Svar.t;
    slots : Runtime.Shared_array.t;
    my_slot : int array;
    locals : local array;
    batch_records : int;
  }

  let name = "broken-hyaline"
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
      slots = Runtime.Shared_array.create n;
      my_slot = Array.make n 0;
      locals =
        Array.init n (fun pid ->
            { open_batch = fresh_batch env n pid; pending = []; sealed = [] });
      batch_records = env.Intf.Env.params.Intf.Params.block_capacity;
    }

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
      b.bags

  let drop_references t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let mine = l.pending in
    l.pending <- [];
    List.filter_map
      (fun b ->
        if b.charges.(pid) then begin
          b.charges.(pid) <- false;
          b.rc <- b.rc - 1;
          if b.rc <= 0 && not b.freed then begin
            b.freed <- true;
            Some b
          end
          else None
        end
        else None)
      mine

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
  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let seal t ctx l =
    let b = l.open_batch in
    if b.size > 0 then begin
      let n = Intf.Env.nprocs t.env in
      l.open_batch <- fresh_batch t.env n ctx.Runtime.Ctx.pid;
      let e = Runtime.Svar.get ctx t.era in
      ignore (Runtime.Svar.cas ctx t.era ~expect:e (e + 1));
      let charged = ref 0 in
      for pid = 0 to n - 1 do
        let a = Runtime.Shared_array.get ctx t.slots pid in
        if a > 0 && a <= b.max_era then begin
          b.charges.(pid) <- true;
          incr charged
        end
      done;
      (* The bug: one reference is lost — [!charged - 1] instead of
         [!charged]. *)
      b.rc <- max 0 (!charged - 1);
      if b.rc = 0 then begin
        b.freed <- true;
        free_batch t ctx b
      end
      else begin
        Array.iteri
          (fun pid c ->
            if c then begin
              let lp = t.locals.(pid) in
              lp.pending <- b :: lp.pending
            end)
          b.charges;
        l.sealed <- b :: List.filter (fun x -> not x.freed) l.sealed
      end
    end

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let b = l.open_batch in
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
  let epoch_lag t = Array.make (Array.length t.locals) 0

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

  let emergency_reclaim _t _ctx = 0
end

module RM_broken_ebr =
  Record_manager.Make (Alloc.Bump) (Pool.Direct) (Broken_ebr)
module RM_broken_hp = Record_manager.Make (Alloc.Bump) (Pool.Direct) (Broken_hp)
module RM_broken_vbr =
  Record_manager.Make (Alloc.Recycle) (Pool.Direct) (Broken_vbr)
module RM_broken_hyaline =
  Record_manager.Make (Alloc.Bump) (Pool.Direct) (Broken_hyaline)
