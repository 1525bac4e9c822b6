(** The scheme registry: every implemented reclaimer, once, in the order
    every matrix and campaign lists them.

    Each entry is a Record Manager assembled with the scheme's canonical
    allocator/pool pairing — the pairing of the paper's Experiment 2:

    - the bump allocator behind the shared pool, so retired records are
      really reused;
    - [none] on the direct pool: it never frees, so there is nothing to
      pool;
    - StackTrack and VBR on the recycling allocator and the direct pool:
      every free must pass through the arena and bump the slot
      generation, which is what their sandboxing and version checks read
      (see alloc.ml and vbr.ml).

    Adding a scheme is one reclaimer module plus one line in {!all}. *)

type entry = {
  rm : (module Intf.RECORD_MANAGER);  (** the canonical assembly *)
  pool : (module Intf.MAKE_POOL);  (** its canonical pool *)
  reclaimer : (module Intf.MAKE_RECLAIMER);
}

let assemble (module A : Intf.ALLOCATOR) (module P : Intf.MAKE_POOL)
    (module R : Intf.MAKE_RECLAIMER) : (module Intf.RECORD_MANAGER) =
  (module Record_manager.Make (A) (P) (R))

let entry alloc pool reclaimer =
  { rm = assemble alloc pool reclaimer; pool; reclaimer }

let bump : (module Intf.ALLOCATOR) = (module Alloc.Bump)
let recycle : (module Intf.ALLOCATOR) = (module Alloc.Recycle)
let direct : (module Intf.MAKE_POOL) = (module Pool.Direct)
let shared : (module Intf.MAKE_POOL) = (module Pool.Shared)

let all =
  [
    entry bump direct (module None_reclaimer.Make);
    entry bump shared (module Ebr.Make);
    entry bump shared (module Qsbr.Make);
    entry bump shared (module Debra.Make);
    entry bump shared (module Debra_plus.Make);
    entry bump shared (module Hp.Make);
    entry bump shared (module Rc.Make);
    entry bump shared (module Threadscan.Make);
    entry recycle direct (module Stacktrack.Make);
    entry recycle direct (module Vbr.Make);
    entry bump shared (module Hyaline.Make);
  ]

let name e =
  let (module RM : Intf.RECORD_MANAGER) = e.rm in
  RM.name

let names = List.map name all

let find scheme =
  match List.find_opt (fun e -> name e = scheme) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find: unknown scheme %S (expected %s)" scheme
           (String.concat "|" names))

(** The canonical Record Manager of a scheme, by name. *)
let rm scheme = (find scheme).rm

(** The other pairings the paper's experiments use. *)
type pairing =
  | Exp1
      (** Experiment 1: bump allocator, direct pool — reclaimers do all
          their work, but freed records are leaked, never reused *)
  | Exp3
      (** Experiment 3: the malloc-style allocator, behind the entry's
          own pool (shared for every scheme that pools, direct for [none],
          StackTrack and VBR) *)

(** [rebuild pairing e] assembles [e]'s reclaimer under [pairing]. *)
let rebuild pairing e =
  match pairing with
  | Exp1 -> assemble bump direct e.reclaimer
  | Exp3 -> assemble (module Alloc.Malloc) e.pool e.reclaimer
