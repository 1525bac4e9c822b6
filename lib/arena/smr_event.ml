(** The SMR event bus: lifecycle and protection events emitted by arenas,
    pools and reclaimers, consumed by shadow-state checkers (lib/sanitizer)
    and by the telemetry recorder (lib/telemetry).

    A hub is owned by a {!Heap} and shared by every arena in it; reclamation
    components reach it through their environment.  With no sink attached,
    emitting a payload-free event ([Leave_q], [Enter_q], ...) is a single
    option check, and every emission point whose event carries a payload
    tests {!listening} before building it: an unobserved run allocates
    nothing on this bus (checked by test/test_alloc.ml).

    Multiple sinks may be attached at once ({!add_sink} returns a
    subscription that {!remove_sink} cancels); the fast path stays a single
    branch because the attached sinks are composed into one closure at
    (un)subscription time, never at emission time.

    Events describe the {e record lifecycle} (alloc, retire, free, pool
    put/take), the {e protection protocol} (protect/unprotect, rprotect),
    the {e quiescence protocol} (leave/enter), and the {e reclamation
    control plane} (epoch advances, neutralization signals, sweeps) —
    the last group exists for observability: checkers may ignore it.
    Emission points are placed so that a shadow checker sees every
    transition before the arena's own generation check can raise: [Free]
    and [Access] fire before validation, protection events fire strictly
    inside the window in which the announcement is visible to concurrent
    scanners (after the announce write, before the retract write). *)

type access = Read | Write | Cas

type t =
  | Alloc of Ptr.t  (** record claimed from its arena *)
  | Free of Ptr.t  (** record released to its arena (generation bumped) *)
  | Access of Ptr.t * access  (** instrumented field access *)
  | Pool_put of Ptr.t
      (** record entered a reuse pool {e without} passing through the arena:
          it may be handed out again with the same generation *)
  | Pool_take of Ptr.t  (** record left a reuse pool to be reused *)
  | Retire of Ptr.t  (** record handed to a reclaimer *)
  | Protect of Ptr.t  (** announcement visible (HP slot, RC count, TS root) *)
  | Unprotect of Ptr.t  (** announcement about to be retracted *)
  | Unprotect_all  (** all of this process' announcements retracted *)
  | Enter_q  (** process entered a quiescent state / passed a q-point *)
  | Leave_q  (** process left its quiescent state (operation begins) *)
  | Rprotect of Ptr.t  (** DEBRA+ recovery announcement visible *)
  | Runprotect_all  (** all recovery announcements retracted *)
  | Epoch_advance of int
      (** this process' CAS moved the global epoch/clock to the payload *)
  | Signal_sent of int  (** neutralization signal sent to process [target] *)
  | Sweep of int
      (** a reclamation sweep (rotation, scan, batch drain) handed the
          payload's worth of records to the pool *)

type sink = Runtime.Ctx.t -> t -> unit
type subscription = int

type hub = {
  mutable sink : sink option;  (** composed fan-out; [None] = fast path *)
  mutable sinks : (subscription * sink) list;  (** newest first *)
  mutable next_id : int;
}

let hub () = { sink = None; sinks = []; next_id = 0 }

(* Rebuild the composed closure.  Sinks run in subscription order, so a
   checker attached before a recorder observes each event first. *)
let recompose hub =
  hub.sink <-
    (match List.rev hub.sinks with
    | [] -> None
    | [ (_, f) ] -> Some f
    | subs ->
        let fs = Array.of_list (List.map snd subs) in
        Some (fun ctx ev -> Array.iter (fun f -> f ctx ev) fs))

let add_sink hub f =
  let id = hub.next_id in
  hub.next_id <- id + 1;
  hub.sinks <- (id, f) :: hub.sinks;
  recompose hub;
  id

let remove_sink hub id =
  hub.sinks <- List.filter (fun (i, _) -> i <> id) hub.sinks;
  recompose hub

let sink_count hub = List.length hub.sinks

(* Guard for emission points whose event carries a payload: building the
   event before [emit]'s own check would allocate on every instrumented
   access of an unobserved run. *)
let listening hub = match hub.sink with None -> false | Some _ -> true

let emit hub ctx ev =
  match hub.sink with None -> () | Some f -> f ctx ev
