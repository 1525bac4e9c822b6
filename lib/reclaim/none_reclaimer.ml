(** The "no reclamation" baseline (the paper's [None]): retired records are
    simply leaked.  Fastest possible scheme per operation, unbounded memory
    footprint — the yardstick every other scheme's overhead is measured
    against. *)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type t = Intf.Env.t

  let name = "none"
  let create env _pool = env
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let protect_ignores_verify = true
  let sandboxed = false
  let leave_qstate t ctx = Intf.Env.emit t ctx Memory.Smr_event.Leave_q
  let enter_qstate t ctx = Intf.Env.emit t ctx Memory.Smr_event.Enter_q
  let is_quiescent _t _ctx = true
  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    if Intf.Env.listening t then
      Intf.Env.emit t ctx (Memory.Smr_event.Retire (Memory.Ptr.unmark p))

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false
  let limbo_size _t = 0
  let limbo_per_proc t = Array.make (Intf.Env.nprocs t) 0
  let epoch_lag t = Array.make (Intf.Env.nprocs t) 0
  let flush _t _ctx = ()

  (* Leaked records are gone: under a bounded heap the only honest answer
     is clean exhaustion. *)
  let emergency_reclaim _t _ctx = 0
end
