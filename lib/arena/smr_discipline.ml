(** The checker discipline of a reclamation scheme: the rules a shadow
    checker replays the {!Smr_event} stream against.  Each reclaimer
    declares one ([Reclaim.Intf.RECLAIMER.discipline]); the runtime
    sanitizer (lib/sanitizer) and the protocol analyzer (lib/protocheck)
    read it from there instead of keeping their own per-scheme tables.

    The classification follows the SMR literature's axes: what a reader
    must do before touching a record (access rule), what must hold before
    a retired record is freed (free rule), and whether quiescence is an
    interval or a point. *)

(** What an instrumented field access is checked against.

    - [Lenient]: accesses are not checked (StackTrack, VBR: reading
      reclaimed memory is the sanctioned abort / rollback mechanism).
    - [Epoch]: only access to a {e freed} record is a violation — retired
      records remain safe to traverse (EBR/QSBR/DEBRA family, ThreadScan).
    - [Hazard]: additionally, access to a {e retired} record is a violation
      unless the accessing process registered a protection {e before} the
      retire (HP, RC). *)
type access = Lenient | Epoch | Hazard

(** What a free of a retired record is checked against.

    - [Skip]: frees are not checked ([none] never frees; StackTrack frees
      under other processes' unpublished register pointers by design; VBR
      frees without any grace period and relies on version re-validation).
    - [Grace_session]: a free is premature while any process is still inside
      the operation (session) that was open when the record was retired
      (EBR, DEBRA, DEBRA+, and Hyaline, whose batch is freed only after
      every session charged at seal time has closed).
    - [Grace_qpoint]: a free is premature while any process has not passed a
      quiescent point since the retire (QSBR).
    - [Hazard_scan]: a free is premature while any process holds a
      protection registered before the retire (HP, RC, ThreadScan). *)
type free = Skip | Grace_session | Grace_qpoint | Hazard_scan

(** Whether quiescence is an {e interval} the process brackets with
    [Leave_q]..[Enter_q] (every scheme but QSBR) or an instantaneous
    {e point} it announces ([Enter_q] with no bracket, QSBR).  An
    operation-boundary access rule is only meaningful for intervals: under
    point quiescence a process is presumed inside a critical section at
    all times. *)
type quiescence = Interval | Point

type t = {
  access : access;
  free : free;
  quiescence : quiescence;
  track_limbo : bool;
      (** the scheme's [limbo_size] accounts for every retired, unfreed
          record, so a checker may reconcile its shadow ledger against it;
          off for [none], which leaks by design *)
}

(** The discipline that follows from the reclaimer's capability flags
    alone: a sandboxed scheme is checked leniently, one that allows
    retired traversal waits for a session grace period, and any other
    scheme is a hazard scheme.  A reclaimer whose free rule, quiescence or
    limbo accounting differs overrides the field in its declaration. *)
let of_flags ~allows_retired_traversal ~sandboxed =
  let access, free =
    if sandboxed then (Lenient, Skip)
    else if allows_retired_traversal then (Epoch, Grace_session)
    else (Hazard, Hazard_scan)
  in
  { access; free; quiescence = Interval; track_limbo = true }
