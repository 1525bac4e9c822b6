(** A heap groups the arenas of one data structure instance so that
    reclamation code can dispatch on a pointer's arena id.  Create one heap
    per experiment/trial. *)

type t

val create : unit -> t

(** Every arena of a heap shares one event hub (see {!Smr_event}).
    [add_sink] attaches a consumer (a shadow checker, a telemetry recorder —
    several may be attached at once) and returns the subscription that
    [remove_sink] cancels; [emit] lets reclamation code publish protocol
    events (retire, protect, quiescence) on the same bus as the arenas'
    lifecycle events.  [listening] is {!Smr_event.listening} on that bus:
    callers test it before building an event that carries a payload. *)

val events : t -> Smr_event.hub
val listening : t -> bool
val emit : t -> Runtime.Ctx.t -> Smr_event.t -> unit
val add_sink : t -> Smr_event.sink -> Smr_event.subscription
val remove_sink : t -> Smr_event.subscription -> unit

(** [new_arena t ~name ~mut_fields ~const_fields ~capacity] creates an arena
    registered in this heap (at most {!Ptr.max_arenas}). *)
val new_arena :
  t -> name:string -> mut_fields:int -> const_fields:int -> capacity:int -> Arena.t

val arena_of : t -> Ptr.t -> Arena.t
val arenas : t -> Arena.t list

(** [release t ctx p ~recycle] frees [p] in its owning arena. *)
val release : t -> Runtime.Ctx.t -> Ptr.t -> recycle:bool -> unit

val set_checking : t -> bool -> unit

(** Bounded-memory mode.  [set_record_budget t k] caps the number of
    simultaneously-live records across {e all} arenas of this heap at [k];
    further allocations raise {!Arena.Out_of_memory} until records are
    released.  [k < 0] (the default) removes the cap.  [budget_live] is the
    current charge against the budget. *)

val set_record_budget : t -> int -> unit
val record_budget : t -> int
val budget_live : t -> int

(** Aggregated statistics over all arenas. *)

val live_records : t -> int
val bytes_claimed : t -> int
val bytes_peak : t -> int
val total_allocs : t -> int
val total_frees : t -> int
