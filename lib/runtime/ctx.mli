(** Per-process execution context.

    Every per-process operation in the library takes a [Ctx.t] explicitly,
    mirroring the [pid]-indexed pseudocode of the paper.  The context carries
    the process id, the simulated-signal state (the substitute for POSIX
    signals, see DESIGN.md), instrumentation hooks used by the machine
    simulator, and per-process statistics.

    The fundamental guarantee provided here is the one DEBRA+ requires of the
    operating system: after another process sets this process' signal flag,
    the registered handler runs before the process performs its next
    instrumented shared-memory access. *)

type access_kind =
  | Read
  | Write
  | Cas
  | Fence  (** a full memory barrier, as issued after a HP announcement *)
  | Work of int  (** uninstrumented local computation of the given cost *)

(** Raised by a signal handler to abort the interrupted operation; the moral
    equivalent of the paper's [siglongjmp] out of the signal handler.  Data
    structure operation wrappers catch it and run recovery code. *)
exception Neutralized

(** Raised by a process body to simulate a crash; runners treat the process
    as permanently stopped (it remains non-quiescent if it crashed
    mid-operation). *)
exception Crashed

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cass : int;
  mutable fences : int;
  mutable local_work : int;  (** cycles of [Work] charged *)
  mutable allocs : int;
  mutable frees : int;
  mutable retires : int;
  mutable ops : int;  (** completed data structure operations *)
  mutable neutralized : int;  (** times this process was neutralized *)
  mutable signals_sent : int;
  mutable signals_ignored : int;  (** signals received while quiescent *)
}

type t = {
  pid : int;
  nprocs : int;
  sig_pending : bool Atomic.t;
  mutable sig_mask : int;
      (** signal-mask depth; while positive, [poll] defers handler delivery
          (the pending flag stays set).  See {!mask}/{!unmask}. *)
  mutable handler : t -> unit;
      (** signal handler; invoked at the next instrumented access after
          [sig_pending] is set.  Default: ignore. *)
  mutable hook : t -> line:int -> access_kind -> unit;
      (** instrumentation hook; the simulator charges cache-model costs and
          yields to the scheduler here.  Default: a shared no-op closure
          that {!access} recognises by physical equality and never calls,
          so an unobserved access makes no indirect call.  Saving this
          field and restoring it later (as the simulator does) restores
          that fast path; install hooks with {!add_hook}. *)
  mutable now_impl : unit -> int;
      (** current time in cycles (virtual under the simulator, scaled
          wall-clock under domains). *)
  mutable stall_impl : int -> unit;
      (** park this process for the given number of cycles. *)
  mutable rng : Random.State.t;
  stats : stats;
}

val make : pid:int -> nprocs:int -> seed:int -> t

(** [poll ctx] checks the signal flag and, if set, clears it and runs the
    handler.  Called automatically by [access]; exposed so long local-only
    code paths can poll explicitly. *)
val poll : t -> unit

(** [mask ctx] / [unmask ctx] bracket a critical section during which signal
    delivery is deferred — the analogue of [pthread_sigmask(SIG_BLOCK, ...)]
    around code that must not be torn out by a neutralization [siglongjmp]
    (e.g. a lock-holding window in the lazy skip list).  Calls nest; the
    pending flag is not cleared, so a signal received while masked is
    handled at the first instrumented access after the outermost [unmask].
    A scheme relying on masked windows must treat signal delivery as
    unreliable (acknowledgement-based, see {!Group.t.signals_unreliable}):
    the sender cannot assume a signalled process was neutralized
    immediately. *)
val mask : t -> unit

val unmask : t -> unit

(** [access ctx ~line kind] records one instrumented shared-memory access:
    polls the signal flag (running a pending handler first), updates
    statistics, and invokes the hook if one is installed.  It is inlined
    at every call site; with the default hook it amounts to the poll, one
    counter increment and one branch. *)
val access : t -> line:int -> access_kind -> unit

(** [add_hook ctx f] composes [f] in front of the currently-installed hook
    (both run on every access, [f] first) and returns a thunk restoring the
    previous hook.  Layers that install hooks — the simulator, the sanitizer
    — must compose rather than overwrite so they can stack. *)
val add_hook : t -> (t -> line:int -> access_kind -> unit) -> unit -> unit

(** [work ctx cost] charges [cost] cycles of local computation. *)
val work : t -> int -> unit

(** [fence ctx] charges a full memory barrier. *)
val fence : t -> unit

val now : t -> int
val stall : t -> int -> unit

(** [crash ctx] simulates a process crash by raising {!Crashed}. *)
val crash : t -> 'a

val reset_stats : t -> unit
val stats_total_accesses : stats -> int
