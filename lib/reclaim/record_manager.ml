(** Assembling a Record Manager from its three components (paper §6).

    [Make (Alloc) (Pool) (Reclaimer)] is the OCaml rendering of the paper's
    template instantiation: the resulting module satisfies
    {!Intf.RECORD_MANAGER}, and a data structure functorized over that
    signature switches reclamation scheme, pooling policy or allocator by
    changing this single line. *)

module Make
    (A : Intf.ALLOCATOR)
    (MP : Intf.MAKE_POOL)
    (MR : Intf.MAKE_RECLAIMER) : Intf.RECORD_MANAGER = struct
  module Alloc = A
  module Pool = MP (A)
  module Reclaimer = MR (Pool)

  type t = {
    env : Intf.Env.t;
    pool : Pool.t;
    reclaimer : Reclaimer.t;
    pressure : Intf.Pressure.t;
  }

  let name = Reclaimer.name

  let scheme_name =
    Printf.sprintf "%s(%s,%s)" Reclaimer.name Pool.name Alloc.name

  let create env =
    let alloc = A.create env in
    let pool = Pool.create env alloc in
    {
      env;
      pool;
      reclaimer = Reclaimer.create env pool;
      pressure = Intf.Pressure.create ();
    }

  let env t = t.env
  let pressure t = t.pressure

  let emergency_reclaim t ctx =
    let freed = Reclaimer.emergency_reclaim t.reclaimer ctx in
    t.pressure.Intf.Pressure.emergency_reclaims <-
      t.pressure.Intf.Pressure.emergency_reclaims + 1;
    t.pressure.Intf.Pressure.emergency_freed <-
      t.pressure.Intf.Pressure.emergency_freed + freed;
    freed

  (* Allocation with graceful degradation: when the arena (or the heap's
     record budget) is exhausted, force reclamation work that the scheme
     would normally amortize — emergency announcement scan plus limbo
     drain — and retry.  A pass that frees something retries immediately
     (it may have freed a different epoch's bag, or a different arena's
     records, than the one we need).  A pass that frees {e nothing} is not
     yet defeat: under a hard budget several processes reach this path
     together, each mid-operation and hence pinning the epoch for the
     others.  The pass itself performs instrumented accesses, so spinning
     here lets the scheduler run the other processes to their operation
     boundaries, after which the epoch moves and the next pass frees.
     Only after [patience] consecutive fruitless passes does the failure
     surface to the data structure. *)
  let patience = 64

  let rec alloc_after t ctx arena ~fruitless =
    try Pool.allocate t.pool ctx arena
    with (Memory.Arena.Out_of_memory _ | Memory.Arena.Arena_full _) as e ->
      if emergency_reclaim t ctx > 0 then alloc_after t ctx arena ~fruitless:0
      else begin
        t.pressure.Intf.Pressure.alloc_retries <-
          t.pressure.Intf.Pressure.alloc_retries + 1;
        if fruitless + 1 >= patience then raise e
        else alloc_after t ctx arena ~fruitless:(fruitless + 1)
      end

  let alloc t ctx arena = alloc_after t ctx arena ~fruitless:0

  let dealloc t ctx p = Pool.release t.pool ctx p
  let supports_crash_recovery = Reclaimer.supports_crash_recovery
  let allows_retired_traversal = Reclaimer.allows_retired_traversal
  let protect_ignores_verify = Reclaimer.protect_ignores_verify
  let sandboxed = Reclaimer.sandboxed
  let discipline = Reclaimer.discipline
  let leave_qstate t ctx = Reclaimer.leave_qstate t.reclaimer ctx
  let enter_qstate t ctx = Reclaimer.enter_qstate t.reclaimer ctx
  let is_quiescent t ctx = Reclaimer.is_quiescent t.reclaimer ctx
  let protect t ctx p ~verify = Reclaimer.protect t.reclaimer ctx p ~verify
  let unprotect t ctx p = Reclaimer.unprotect t.reclaimer ctx p
  let unprotect_all t ctx = Reclaimer.unprotect_all t.reclaimer ctx
  let is_protected t ctx p = Reclaimer.is_protected t.reclaimer ctx p
  let retire t ctx p = Reclaimer.retire t.reclaimer ctx p
  let rprotect t ctx p = Reclaimer.rprotect t.reclaimer ctx p
  let runprotect_all t ctx = Reclaimer.runprotect_all t.reclaimer ctx
  let is_rprotected t ctx p = Reclaimer.is_rprotected t.reclaimer ctx p
  let limbo_size t = Reclaimer.limbo_size t.reclaimer
  let limbo_per_proc t = Reclaimer.limbo_per_proc t.reclaimer
  let epoch_lag t = Reclaimer.epoch_lag t.reclaimer
  let pool_population t = Pool.population t.pool
  let flush t ctx = Reclaimer.flush t.reclaimer ctx

  (* The operation wrapper of Fig. 5: catch neutralization, run recovery in
     a quiescent state, restart when recovery asks for it.  Under a
     sandboxed scheme (StackTrack), an access to reclaimed memory raises
     {!Memory.Arena.Use_after_free} instead of segfaulting; that is the
     simulated transaction abort, and it is recovered from exactly like a
     neutralization: the recover closure either finishes the operation from
     its published descriptor or asks for a restart. *)
  let rec run_op_on t ctx ~recover body arg =
    match body arg with
    | v -> v
    | exception Runtime.Ctx.Neutralized -> (
        match recover () with
        | Some v -> v
        | None -> run_op_on t ctx ~recover body arg)
    | exception Memory.Arena.Use_after_free _ when Reclaimer.sandboxed -> (
        (* The aborted segment's register file is discarded with it. *)
        Reclaimer.unprotect_all t.reclaimer ctx;
        match recover () with
        | Some v -> v
        | None -> run_op_on t ctx ~recover body arg
        | exception Memory.Arena.Use_after_free _ ->
            run_op_on t ctx ~recover body arg)

  let run_op t ctx ~recover body = run_op_on t ctx ~recover body ()

  (* Alias the untyped surface the typed wrappers delegate to, before the
     submodule shadows the names. *)
  let untyped_alloc = alloc

  (* The typestate facade.  Every wrapper performs exactly the instrumented
     calls of the untyped spelling it replaces — witness bookkeeping is
     plain OCaml state — so converting a data structure to this surface
     changes no schedule and no golden trace.  With no monitor or oracle
     attached, the protocol hooks are option checks that build no event:
     guards are bare pointers and [acquire] allocates nothing. *)
  module Typed = struct
    type session = S
    type guard = Memory.Ptr.t
    type fresh = { fp : Memory.Ptr.t; mutable spent : bool }
    type unlinked = { up : Memory.Ptr.t; mutable consumed : bool }

    let monitored t = Intf.Env.monitored t.env
    let observe t ctx ev = Intf.Env.observe t.env ctx ev

    let run_op t ctx ~recover body = run_op_on t ctx ~recover body S

    let leave t ctx (_ : session) = Reclaimer.leave_qstate t.reclaimer ctx
    let enter t ctx (_ : session) = Reclaimer.enter_qstate t.reclaimer ctx

    let alloc t ctx arena =
      let p = untyped_alloc t ctx arena in
      if monitored t then observe t ctx (Intf.Protocol.Fresh p);
      { fp = p; spent = false }

    let fresh_ptr f = f.fp

    let spend f ~by =
      if f.spent then
        invalid_arg ("Typed." ^ by ^ ": fresh witness already spent");
      f.spent <- true

    let init t ctx arena f field v =
      ignore t;
      Memory.Arena.write ctx arena f.fp field v

    let init_const t ctx arena f field v =
      ignore t;
      Memory.Arena.set_const ctx arena f.fp field v

    let sentinel t ctx f =
      spend f ~by:"sentinel";
      if monitored t then observe t ctx (Intf.Protocol.Root f.fp);
      f.fp

    let expose t ctx f =
      spend f ~by:"expose";
      if monitored t then observe t ctx (Intf.Protocol.Publish f.fp);
      f.fp

    let abandon t ctx f =
      spend f ~by:"abandon";
      if monitored t then observe t ctx (Intf.Protocol.Abandon f.fp);
      Pool.release t.pool ctx f.fp

    let unverified () =
      invalid_arg
        (Printf.sprintf
           "Typed.unverified: %s declares protect_ignores_verify but ran the \
            verification"
           Reclaimer.name)

    let acquire t ctx (_ : session) p ~verify =
      match Intf.Env.decide_acquire t.env ctx p with
      | Intf.Protocol.Grant ->
          let granted = Reclaimer.protect t.reclaimer ctx p ~verify in
          if monitored t then
            observe t ctx
              (Intf.Protocol.Acquire { p; granted; adversary = false });
          if granted then p else raise_notrace Intf.Acquire_denied
      | Intf.Protocol.Adversary ->
          (* Simulate a concurrent removal between announce and validate:
             the verification fails.  A scheme that needs no validation
             (epoch-style) legitimately grants; a hazard-style scheme that
             grants anyway skipped its validation step, which the monitor
             will flag.  Either way the caller is steered down its restart
             branch. *)
          let granted =
            Reclaimer.protect t.reclaimer ctx p ~verify:(fun () -> false)
          in
          if monitored t then
            observe t ctx
              (Intf.Protocol.Acquire { p; granted; adversary = true });
          if granted then Reclaimer.unprotect t.reclaimer ctx p;
          raise_notrace Intf.Acquire_denied

    let root_guard _t (_ : session) p = p

    let covered _t (_ : session) p =
      if not (Reclaimer.allows_retired_traversal || Reclaimer.sandboxed) then
        invalid_arg
          (Printf.sprintf
             "Typed.covered: %s protects per record, not per session"
             Reclaimer.name);
      p

    let ptr g = g
    let release t ctx g = Reclaimer.unprotect t.reclaimer ctx g
    let release_all t ctx = Reclaimer.unprotect_all t.reclaimer ctx
    let read _t ctx arena g field = Memory.Arena.read ctx arena g field
    let write _t ctx arena g field v = Memory.Arena.write ctx arena g field v

    let get_const _t ctx arena g field =
      Memory.Arena.get_const ctx arena g field

    (* A lifecycle CAS: the oracle may defeat it without touching memory. *)
    let decided_cas t ctx arena container field ~expect word =
      match Intf.Env.decide_cas t.env ctx container with
      | Intf.Protocol.Adversary -> false
      | Intf.Protocol.Grant ->
          Memory.Arena.cas ctx arena container field ~expect word

    let publish t ctx f ~by =
      spend f ~by;
      if monitored t then observe t ctx (Intf.Protocol.Publish f.fp)

    let unlink t ctx p =
      if monitored t then observe t ctx (Intf.Protocol.Unlink p);
      { up = p; consumed = false }

    (* Explicit recursions rather than [List.iter]/[List.map] over partial
       applications: no closure per CAS.  Witnesses are minted in list
       order, so a monitor sees the [Unlink] events in that order. *)
    let rec publish_all t ctx = function
      | [] -> ()
      | f :: fs ->
          publish t ctx f ~by:"cas_at";
          publish_all t ctx fs

    let rec unlink_all t ctx = function
      | [] -> []
      | p :: ps ->
          let w = unlink t ctx p in
          w :: unlink_all t ctx ps

    let cas_at t ctx arena container field ~expect word ~publishes ~unlinks =
      if decided_cas t ctx arena container field ~expect word then begin
        publish_all t ctx publishes;
        Some (unlink_all t ctx unlinks)
      end
      else None

    let cas t ctx arena g field ~expect word =
      decided_cas t ctx arena g field ~expect word

    let publish_cas t ctx arena g field ~expect f =
      decided_cas t ctx arena g field ~expect f.fp
      && begin
           publish t ctx f ~by:"cas_at";
           true
         end

    let cas_unlink t ctx arena g field ~expect word ~unlinks =
      cas_at t ctx arena g field ~expect word ~publishes:[] ~unlinks

    let svar_cas_unlink t ctx sv ~expect word ~unlinks =
      match Intf.Env.decide_cas t.env ctx expect with
      | Intf.Protocol.Adversary -> None
      | Intf.Protocol.Grant ->
          if Runtime.Svar.cas ctx sv ~expect word then
            Some (unlink_all t ctx unlinks)
          else None

    let publish_locked t ctx (_ : session) f =
      publish t ctx f ~by:"publish_locked";
      f.fp

    let unlink_locked t ctx (_ : session) p = unlink t ctx p

    let unlinked_ptr w = w.up

    let retire t ctx w =
      if w.consumed then
        invalid_arg "Typed.retire: unlinked witness already consumed";
      (* Consume only once the reclaimer call returns: a neutralization
         raised inside retire (before the limbo insertion) leaves the
         witness live for the recovery path to retire exactly once. *)
      Reclaimer.retire t.reclaimer ctx w.up;
      w.consumed <- true
  end
end
