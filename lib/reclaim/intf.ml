(** Component signatures of the Record Manager abstraction (paper §6).

    A Record Manager is assembled from three interchangeable components:

    - an {b Allocator} decides how records are obtained from and returned to
      the memory system (bump region vs. malloc-style free list);
    - a {b Pool} decides when reclaimed records are handed back to the
      Allocator and whether allocation can bypass it (per-process pool bags
      plus a shared bag of full blocks);
    - a {b Reclaimer} is given retired records and decides when they can
      safely be handed to the Pool (DEBRA, DEBRA+, EBR, HP, ...).

    Components are OCaml functors — the analogue of the paper's C++
    templates: a data structure is written once against
    {!module-type:RECORD_MANAGER} and a scheme is swapped by changing a
    single functor application. *)

module Params = struct
  type t = {
    block_capacity : int;  (** records per block (the paper's B = 256) *)
    check_thresh : int;
        (** leaveQstate calls between announcement checks (CHECK_THRESH) *)
    incr_thresh : int;
        (** min leaveQstate calls before an epoch CAS (INCR_THRESH) *)
    pool_cap_blocks : int;
        (** pool-bag blocks kept locally before spilling to the shared bag *)
    hp_slots : int;  (** hazard pointers per process (k) *)
    hp_retire_factor : int;
        (** HP scan threshold = factor * n * k records (Θ(nk) slack) *)
    suspect_blocks : int;
        (** DEBRA+: limbo blocks before a lagging process is neutralized *)
    scan_blocks_slack : int;
        (** DEBRA+: extra blocks beyond nk records before a scan pays off *)
    ts_buffer_blocks : int;  (** ThreadScan: delete-buffer blocks before a scan *)
    st_segment_accesses : int;
        (** StackTrack: records reached per transactional segment *)
    padded_announcements : bool;  (** pad per-process announcements (NUMA opt) *)
    malloc_cost : int;  (** extra cycles charged per malloc-style (de)alloc *)
  }

  let default =
    {
      block_capacity = 256;
      check_thresh = 1;
      incr_thresh = 100;
      pool_cap_blocks = 32;
      hp_slots = 8;
      hp_retire_factor = 2;
      suspect_blocks = 4;
      scan_blocks_slack = 1;
      ts_buffer_blocks = 4;
      st_segment_accesses = 8;
      padded_announcements = true;
      malloc_cost = 120;
    }
end

(** The witness-level SMR protocol, as seen by a checker sitting {e above}
    the {!Memory.Smr_event} bus.  The bus reports what the reclaimer and
    the arenas physically did (protect slots, retires, frees, field
    accesses); these events report what the data structure {e claimed} when
    it went through the typed Record Manager surface
    ({!RECORD_MANAGER.Typed}): which records are private, which CAS
    published or unlinked what, which sentinels are permanent.  A protocol
    analyzer (lib/protocheck) consumes both streams.  Production runs attach
    neither hook: each witness operation then costs one or two option checks
    and builds no event or decision point (checked by test/test_alloc.ml). *)
module Protocol = struct
  type event =
    | Fresh of Memory.Ptr.t
        (** record allocated through the typed surface: private to its owner
            until published *)
    | Publish of Memory.Ptr.t  (** fresh record became reachable *)
    | Abandon of Memory.Ptr.t  (** fresh record deallocated unpublished *)
    | Root of Memory.Ptr.t  (** permanent sentinel: never retired *)
    | Acquire of { p : Memory.Ptr.t; granted : bool; adversary : bool }
        (** a [Typed.acquire] attempt; [adversary] marks a verification the
            oracle forced to fail — a scheme that still [granted] it skipped
            its validation step *)
    | Unlink of Memory.Ptr.t
        (** an unlink witness was issued: the record provably left the
            structure *)

  (** Decision points a branching oracle may steer: every guard acquisition
      and every lifecycle CAS.  [Grant] lets the operation proceed as the
      memory says; [Adversary] simulates a concurrent defeat (a failed
      validation, a lost CAS) without touching memory, so a single-process
      analyzer can drive the structure down both branches of every
      decision. *)
  type point = Acquire_point of Memory.Ptr.t | Cas_point of Memory.Ptr.t

  type decision = Grant | Adversary
  type monitor = Runtime.Ctx.t -> event -> unit
  type oracle = Runtime.Ctx.t -> point -> decision
end

module Env = struct
  (** Shared environment handed to every component: the process group, the
      heap of arenas, and the per-process block pools that all local
      blockbags of a process share (paper §4). *)
  type t = {
    group : Runtime.Group.t;
    heap : Memory.Heap.t;
    block_pools : Bag.Block_pool.t array;
    params : Params.t;
    mutable monitor : Protocol.monitor option;
        (** protocol-event hook for the typed surface; [None] in production *)
    mutable oracle : Protocol.oracle option;
        (** branching oracle for guard/CAS decision points; [None] means
            every decision is [Grant] *)
  }

  let create ?(params = Params.default) group heap =
    let n = Runtime.Group.nprocs group in
    {
      group;
      heap;
      block_pools =
        Array.init n (fun _ ->
            Bag.Block_pool.create ~block_capacity:params.Params.block_capacity ());
      params;
      monitor = None;
      oracle = None;
    }

  let nprocs t = Runtime.Group.nprocs t.group

  (** [true] when a sink listens on the heap's event bus.  Reclaimers test
      it before building an event that carries a payload ([Retire p],
      [Protect p], [Sweep n], ...), so an unobserved run allocates nothing
      for them; see {!Memory.Smr_event}. *)
  let listening t = Memory.Heap.listening t.heap

  (** Publish an SMR protocol event on the heap's event bus.  With no sink
      attached this is one option check, but the caller has already paid
      for building [ev]: guard payload-carrying events with {!listening}. *)
  let emit t ctx ev = Memory.Heap.emit t.heap ctx ev

  (** [true] when a protocol monitor is attached.  The typed surface tests
      it before building a {!Protocol.event}, so an unmonitored run
      allocates nothing for them. *)
  let monitored t = match t.monitor with None -> false | Some _ -> true

  (** Publish a witness-level protocol event to the monitor, if any; guard
      with {!monitored} to avoid building [ev] for nobody. *)
  let observe t ctx ev =
    match t.monitor with None -> () | Some f -> f ctx ev

  (** Consult the branching oracle on a guard acquisition / lifecycle CAS of
      [p]; [Grant] when none is attached.  The decision point is built only
      when an oracle is there to receive it. *)
  let decide_acquire t ctx p =
    match t.oracle with
    | None -> Protocol.Grant
    | Some f -> f ctx (Protocol.Acquire_point p)

  let decide_cas t ctx p =
    match t.oracle with
    | None -> Protocol.Grant
    | Some f -> f ctx (Protocol.Cas_point p)
end

module type ALLOCATOR = sig
  type t

  val name : string
  val create : Env.t -> t

  (** [allocate t ctx arena] returns a fresh, unpublished record. *)
  val allocate : t -> Runtime.Ctx.t -> Memory.Arena.t -> Memory.Ptr.t

  (** [deallocate t ctx p] returns a safely-freed record to the memory
      system. *)
  val deallocate : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit
end

module type POOL = sig
  module Alloc : ALLOCATOR

  type t

  val name : string
  val create : Env.t -> Alloc.t -> t
  val allocate : t -> Runtime.Ctx.t -> Memory.Arena.t -> Memory.Ptr.t

  (** [release t ctx p] accepts one record that is now safe to reuse. *)
  val release : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit

  (** [release_block t ctx b] accepts a full block of safe records, taking
      ownership of the block. *)
  val release_block : t -> Runtime.Ctx.t -> Bag.Block.t -> unit

  (** Records currently parked in the pool awaiting reuse, across all
      processes and the shared bag (uninstrumented telemetry gauge; [Direct]
      pools hold nothing). *)
  val population : t -> int
end

module type MAKE_POOL = functor (A : ALLOCATOR) -> POOL with module Alloc = A

module type RECLAIMER = sig
  module Pool : POOL

  type t

  val name : string
  val create : Env.t -> Pool.t -> t

  (** Statically [true] only for schemes with neutralization-based recovery
      (DEBRA+); lets data structures skip recovery bookkeeping for the
      others, as the paper's [supportsCrashRecovery] template predicate
      does. *)
  val supports_crash_recovery : bool

  (** [true] when a search may follow a pointer out of a retired record into
      another retired record (epoch-style schemes).  HP-style schemes return
      [false] and rely on [protect]'s verification. *)
  val allows_retired_traversal : bool

  (** [true] when [protect] never runs its [verify] argument: the epoch-style
      schemes, and ThreadScan and StackTrack, whose announcements need no
      validation.  A data structure may then pass
      {!RECORD_MANAGER.Typed.unverified} instead of building a validation
      closure at every traversal step.  It must still call [protect], which
      may do instrumented work (ThreadScan announces a root). *)
  val protect_ignores_verify : bool

  (** [true] for schemes that sandbox accesses to reclaimed memory
      (StackTrack's HTM, Optimistic Access): the data structure must treat
      {!Memory.Arena.Use_after_free} as a transaction abort and retry,
      instead of a fatal error. *)
  val sandboxed : bool

  val leave_qstate : t -> Runtime.Ctx.t -> unit
  val enter_qstate : t -> Runtime.Ctx.t -> unit
  val is_quiescent : t -> Runtime.Ctx.t -> bool

  (** [protect t ctx p ~verify] must be called before accessing fields of
      [p].  Epoch-style schemes return [true] immediately; HP-style schemes
      announce [p], fence, and run [verify] to check that [p] is still not
      retired, releasing the announcement when it fails. *)
  val protect :
    t -> Runtime.Ctx.t -> Memory.Ptr.t -> verify:(unit -> bool) -> bool

  val unprotect : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit

  (** [unprotect_all t ctx] releases every protection of this process; used
      by operations that restart from scratch. *)
  val unprotect_all : t -> Runtime.Ctx.t -> unit

  val is_protected : t -> Runtime.Ctx.t -> Memory.Ptr.t -> bool

  (** [retire t ctx p] is invoked each time a record is removed from the
      data structure. *)
  val retire : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit

  (** Recovery-support announcements (DEBRA+ §5); no-ops elsewhere. *)

  val rprotect : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit
  val runprotect_all : t -> Runtime.Ctx.t -> unit
  val is_rprotected : t -> Runtime.Ctx.t -> Memory.Ptr.t -> bool

  (** Records retired but not yet handed to the pool, across all processes
      (uninstrumented; used by the memory experiments and bound tests). *)
  val limbo_size : t -> int

  (** Telemetry gauges: uninstrumented snapshots with no simulated cost,
      safe to call from the simulator's tick callback while a run is in
      flight.

      [limbo_per_proc] attributes records awaiting reclamation to the
      process whose container holds them; schemes with shared limbo
      containers (classical EBR) attribute the whole population to
      process 0.

      [epoch_lag] is how many advance steps each process' announcement
      trails the global reclamation clock (the epoch for EBR/DEBRA/DEBRA+,
      the most advanced quiescent counter for QSBR); quiescent processes
      and schemes without a global clock report 0. *)

  val limbo_per_proc : t -> int array
  val epoch_lag : t -> int array

  (** [flush t ctx] drains every limbo container whose records are no longer
      protected, handing them to the pool.  The quiescent-shutdown API: the
      caller asserts that all {e surviving} processes are quiescent (no
      operation in flight, no recovery pending).  Crashed processes are
      permanently non-quiescent: records they left protected (hazard
      pointers, rprotect rows, ThreadScan roots) are {e kept} in limbo
      rather than freed or waited for — they are accounted as
      crash-leaked, and [limbo_size] may be non-zero after [flush] when a
      process died mid-operation.  It may touch other processes' containers
      and must only be called when no operation is concurrently running. *)
  val flush : t -> Runtime.Ctx.t -> unit

  (** [emergency_reclaim t ctx] is the allocation-failure path (graceful
      degradation under {!Memory.Arena.Out_of_memory} /
      {!Memory.Arena.Arena_full}): do reclamation work {e now}, mid-
      operation, abandoning the scheme's usual amortization — a full
      announcement scan, an epoch advance attempt, a forced drain of every
      limbo record that is provably safe.  Returns the number of records
      handed back to the pool; [0] means the scheme cannot free anything
      (for [none], always; for epoch schemes, when a stalled or crashed
      peer pins the epoch) and the caller must surface the failure.  Must
      be safe to call while the calling process is non-quiescent. *)
  val emergency_reclaim : t -> Runtime.Ctx.t -> int
end

module type MAKE_RECLAIMER = functor (P : POOL) -> RECLAIMER with module Pool = P

(** Reclamation-pressure counters, bumped by the assembled Record
    Manager's allocation path (never by the components): how often
    [alloc] had to fall back to emergency reclamation, how many patience
    retries it burned, and what the emergency passes freed.  Host-side
    state — reading or bumping them costs no simulated cycles — so a
    watermark controller or a degradation report can watch allocation
    distress live, the way {!RECLAIMER.limbo_size} exposes limbo. *)
module Pressure = struct
  type t = {
    mutable alloc_retries : int;
        (** fruitless [alloc] passes: an emergency pass freed nothing and
            the patience loop spun once more *)
    mutable emergency_reclaims : int;
        (** [emergency_reclaim] invocations (both the [alloc] fallback and
            explicit escalation calls) *)
    mutable emergency_freed : int;
        (** records those invocations handed back to the pool *)
  }

  let create () =
    { alloc_retries = 0; emergency_reclaims = 0; emergency_freed = 0 }

  let snapshot t =
    {
      alloc_retries = t.alloc_retries;
      emergency_reclaims = t.emergency_reclaims;
      emergency_freed = t.emergency_freed;
    }
end

(** Raised by {!RECORD_MANAGER.Typed.acquire} when a record could not be
    secured: the traversal must restart.  A constant exception, so an
    acquire that succeeds returns a bare guard and allocates nothing. *)
exception Acquire_denied

(** The assembled interface a data structure programs against. *)
module type RECORD_MANAGER = sig
  module Alloc : ALLOCATOR
  module Pool : POOL with module Alloc = Alloc
  module Reclaimer : RECLAIMER with module Pool = Pool

  type t

  val scheme_name : string
  val create : Env.t -> t
  val env : t -> Env.t

  val alloc : t -> Runtime.Ctx.t -> Memory.Arena.t -> Memory.Ptr.t

  (** [dealloc t ctx p] returns a record that was allocated but {e never
      published} in the data structure (e.g. an insert that lost its race)
      straight to the pool: no grace period is needed because no other
      process can have seen it. *)
  val dealloc : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit

  val supports_crash_recovery : bool
  val allows_retired_traversal : bool
  val protect_ignores_verify : bool
  val sandboxed : bool
  val leave_qstate : t -> Runtime.Ctx.t -> unit
  val enter_qstate : t -> Runtime.Ctx.t -> unit
  val is_quiescent : t -> Runtime.Ctx.t -> bool

  val protect :
    t -> Runtime.Ctx.t -> Memory.Ptr.t -> verify:(unit -> bool) -> bool

  val unprotect : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit
  val unprotect_all : t -> Runtime.Ctx.t -> unit
  val is_protected : t -> Runtime.Ctx.t -> Memory.Ptr.t -> bool
  val retire : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit
  val rprotect : t -> Runtime.Ctx.t -> Memory.Ptr.t -> unit
  val runprotect_all : t -> Runtime.Ctx.t -> unit
  val is_rprotected : t -> Runtime.Ctx.t -> Memory.Ptr.t -> bool
  val limbo_size : t -> int

  (** See {!RECLAIMER.limbo_per_proc} / {!RECLAIMER.epoch_lag} /
      {!POOL.population}: uninstrumented telemetry gauges. *)

  val limbo_per_proc : t -> int array
  val epoch_lag : t -> int array
  val pool_population : t -> int

  (** See {!RECLAIMER.flush}: drain limbo under full quiescence. *)
  val flush : t -> Runtime.Ctx.t -> unit

  (** See {!RECLAIMER.emergency_reclaim}: forced drain on allocation
      failure.  [alloc] calls it automatically and retries once before
      letting the failure escape. *)
  val emergency_reclaim : t -> Runtime.Ctx.t -> int

  (** Live reclamation-pressure counters (see {!Pressure}): the returned
      record is the manager's own mutable state, updated as [alloc] and
      [emergency_reclaim] run; callers wanting a fixed point in time take
      {!Pressure.snapshot}. *)
  val pressure : t -> Pressure.t

  (** [run_op t ctx ~recover body] executes one data structure operation
      with neutralization recovery (paper Fig. 5): when [body] is aborted by
      {!Runtime.Ctx.Neutralized} — or, under a sandboxed scheme, by
      {!Memory.Arena.Use_after_free}, the simulated transaction abort —
      [recover] runs in a quiescent state and either finishes the operation
      ([Some v]) or asks for a restart ([None]). *)
  val run_op :
    t -> Runtime.Ctx.t -> recover:(unit -> 'a option) -> (unit -> 'a) -> 'a

  (** The typestate-hardened face of the Record Manager (nim-debra's
      phantom-typed guards, rendered with abstract witness types).  Misuse
      the runtime sanitizer used to catch dynamically becomes unrepresentable
      for code written against this surface:

      - a mid-operation dereference needs a {!Typed.guard}, and the only
        ways to obtain one are a successful, verified {!Typed.acquire}
        (which needs a {!Typed.session}, issued only by {!Typed.run_op}) or
        a declared-permanent sentinel;
      - {!Typed.retire} consumes a one-shot {!Typed.unlinked} witness, and
        the only issuers are the lifecycle CASes / lock-held unlink
        declarations — retiring a record that was never unlinked, or
        retiring it twice, has no well-typed spelling;
      - {!Typed.abandon} (the only deallocation that skips the grace
        period) consumes a {!Typed.fresh} witness, which every publishing
        CAS spends — freeing a reachable record without retire has no
        well-typed spelling either.

      Every wrapper delegates to exactly the untyped call it names, so a
      converted structure performs the identical instrumented access
      sequence; the additional {!Protocol} events flow only to an attached
      monitor.  The untyped surface above remains for harnesses, drains and
      scheme tests. *)
  module Typed : sig
    type session
    (** Evidence of being inside one operation attempt under the Fig. 5
        recovery shell; issued only by {!run_op}. *)

    type guard [@@immediate]
    (** Evidence that one record may be dereferenced right now.  An
        unboxed pointer at run time: issuing one allocates nothing. *)

    type fresh
    (** Evidence that a record is allocated but still private: no other
        process can reach it.  Spent by publication or {!abandon}. *)

    type unlinked
    (** One-shot evidence that a record has been removed from the
        structure; the only currency {!retire} accepts. *)

    val run_op :
      t -> Runtime.Ctx.t -> recover:(unit -> 'a option) -> (session -> 'a) -> 'a

    (** Quiescence transitions, tied to the operation that owns them. *)

    val leave : t -> Runtime.Ctx.t -> session -> unit
    val enter : t -> Runtime.Ctx.t -> session -> unit

    (** Allocation lifecycle. *)

    val alloc : t -> Runtime.Ctx.t -> Memory.Arena.t -> fresh
    val fresh_ptr : fresh -> Memory.Ptr.t

    val init : t -> Runtime.Ctx.t -> Memory.Arena.t -> fresh -> int -> int -> unit
    (** Initialize a mutable field of a private record. *)

    val init_const :
      t -> Runtime.Ctx.t -> Memory.Arena.t -> fresh -> int -> int -> unit

    val sentinel : t -> Runtime.Ctx.t -> fresh -> Memory.Ptr.t
    (** Spend a fresh witness declaring a permanent, never-retired record
        (list head, skiplist sentinels). *)

    val expose : t -> Runtime.Ctx.t -> fresh -> Memory.Ptr.t
    (** Spend a fresh witness publishing a record outside any CAS — initial
        structure construction only (e.g. the MS queue's first dummy). *)

    val abandon : t -> Runtime.Ctx.t -> fresh -> unit
    (** Deallocate a never-published record (an insert that lost its race);
        the typed face of [dealloc]. *)

    (** Guards. *)

    val acquire :
      t -> Runtime.Ctx.t -> session -> Memory.Ptr.t -> verify:(unit -> bool) ->
      guard
    (** [protect] with its validation step, as a witness issuer.  Raises
        {!Acquire_denied} when the record could not be secured and the
        traversal must restart. *)

    val unverified : unit -> bool
    (** The [verify] to pass under a scheme that [protect_ignores_verify],
        so a traversal step builds no closure.  It raises
        [Invalid_argument] if it is ever run: a scheme that declared the
        fact wrongly fails loudly instead of skipping its validation. *)

    val root_guard : t -> session -> Memory.Ptr.t -> guard
    (** Guard for a record declared via {!sentinel}: permanent records need
        no announcement. *)

    val covered : t -> session -> Memory.Ptr.t -> guard
    (** Epoch-style blanket coverage: under a scheme that
        [allows_retired_traversal] (or sandboxes accesses), being inside
        the session {e is} the protection.  Rejected ([Invalid_argument])
        under hazard-style schemes, where per-record acquisition is the
        only sound guard. *)

    val ptr : guard -> Memory.Ptr.t
    val release : t -> Runtime.Ctx.t -> guard -> unit
    val release_all : t -> Runtime.Ctx.t -> unit

    (** Guarded dereference: the only typed spellings of a field access. *)

    val read : t -> Runtime.Ctx.t -> Memory.Arena.t -> guard -> int -> int
    val write : t -> Runtime.Ctx.t -> Memory.Arena.t -> guard -> int -> int -> unit
    val get_const : t -> Runtime.Ctx.t -> Memory.Arena.t -> guard -> int -> int

    val cas :
      t -> Runtime.Ctx.t -> Memory.Arena.t -> guard -> int -> expect:int ->
      int -> bool
    (** Plain guarded CAS with no lifecycle effect (e.g. the logical-delete
        mark bit).  An oracle decision point. *)

    (** Lifecycle CASes.  Every one is an oracle decision point: under an
        [Adversary] decision the CAS reports failure {e without} touching
        memory, steering the structure down its retry/helping path. *)

    val cas_at :
      t ->
      Runtime.Ctx.t ->
      Memory.Arena.t ->
      Memory.Ptr.t ->
      int ->
      expect:int ->
      int ->
      publishes:fresh list ->
      unlinks:Memory.Ptr.t list ->
      unlinked list option
    (** The general primitive: one CAS that publishes [publishes] (their
        fresh witnesses are spent) and removes [unlinks] (one witness per
        record, in order) when it succeeds.  The container is a raw
        pointer: structures whose containers are validated by other means
        (a held lock, a packed-word identity check) use this directly;
        fully-guarded structures use the sugar below. *)

    val publish_cas :
      t -> Runtime.Ctx.t -> Memory.Arena.t -> guard -> int -> expect:int ->
      fresh -> bool
    (** Publish one fresh record by CASing its pointer into a guarded
        container. *)

    val cas_unlink :
      t ->
      Runtime.Ctx.t ->
      Memory.Arena.t ->
      guard ->
      int ->
      expect:int ->
      int ->
      unlinks:Memory.Ptr.t list ->
      unlinked list option
    (** Unlink via a CAS on a guarded container. *)

    val svar_cas_unlink :
      t ->
      Runtime.Ctx.t ->
      int Runtime.Svar.t ->
      expect:int ->
      int ->
      unlinks:Memory.Ptr.t list ->
      unlinked list option
    (** Unlink via a CAS on a shared variable outside any arena (the MS
        queue's head swing). *)

    val publish_locked : t -> Runtime.Ctx.t -> session -> fresh -> Memory.Ptr.t
    (** Publication by plain writes under held locks (lazy skiplist):
        spends the fresh witness at the linearization point. *)

    val unlink_locked : t -> Runtime.Ctx.t -> session -> Memory.Ptr.t -> unlinked
    (** Unlink by plain writes under held locks: the caller asserts every
        incoming pointer was overwritten while the predecessors were
        locked. *)

    val unlinked_ptr : unlinked -> Memory.Ptr.t

    val retire : t -> Runtime.Ctx.t -> unlinked -> unit
    (** Spend an unlink witness, handing the record to the reclaimer.
        Raises [Invalid_argument] on a witness already spent — the typed
        face of the deleted double-retire sanitizer check. *)
  end
end
