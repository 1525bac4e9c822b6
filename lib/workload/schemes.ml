(** The experiment matrix: which schemes of the {!Reclaim.Registry} each
    paper figure runs, on which structure and under which allocator/pool
    pairing; one uniform trial runner per (structure, Record Manager); and
    the panel driver that sweeps process counts and prints one table per
    figure panel.

    Variants follow the paper's experiments: ["exp1"] rebuilds each scheme
    on the bump allocator with no pool (reclamation work without reuse),
    ["exp2"] and ["zoo"] run the registry's canonical pairings (records
    reused through the pool), ["exp3"] rebuilds them on the malloc-style
    allocator. *)

open Reclaim

type cfg = {
  backend : Exec.Backend.t;
      (** execution backend: [`Sim] (deterministic virtual time, the
          default everywhere) or [`Domains] (real OCaml 5 parallelism) *)
  machine : Machine.Config.t;
  params : Intf.Params.t;
  duration : int;
  n : int;
  range : int;
  ins : int;
  del : int;
  seed : int;
  capacity : int;
  sanitize : bool;  (** run the trial under the shadow-state sanitizer *)
  telemetry : Telemetry.Recorder.t option;
      (** attach a telemetry recorder: latency histograms, gauge time
          series, optional Chrome trace *)
  stall : (int * int) option;
      (** [(at, cycles)]: park the highest-pid process mid-operation at
          virtual time [at] for [cycles] — the E-stall campaign *)
  chaos : Chaos.plan option;
      (** fault-injection plan (crashes, signal faults, memory budget);
          armed after the prefill — the E-crash / E-oom campaigns *)
  budget : int;
      (** bounded-memory mode: headroom in records the trial may claim
          beyond what the prefill left claimed; negative = unlimited *)
  max_steps : int option;
      (** scheduler step budget: livelocks and fault-induced wedges raise
          {!Sim.Stuck} instead of spinning forever *)
  history : Lincheck.History.recorder option;
      (** record every operation (prefill included) as an
          invocation/response history for the linearizability checker *)
}

type runner = { rname : string; run : cfg -> Trial.outcome }

(* Resolve a cfg's backend to a RUNNER first-class module.  The sim knobs
   (machine model, step budget) configure the simulator; the domains
   backend ignores them and runs on the wall clock. *)
let exec_of cfg =
  Exec.Backend.runner ~machine:cfg.machine ?max_steps:cfg.max_steps
    cfg.backend

(* Static names for the canonical Record Managers, for code that applies
   its own functors to them (perfbench, the KV tests).  The digit is the
   paper's experiment: Experiment 2 runs every scheme's canonical pairing,
   and [none]'s is also Experiment 1's. *)
module RM1_none = (val Registry.rm "none")
module RM2_ebr = (val Registry.rm "ebr")
module RM2_qsbr = (val Registry.rm "qsbr")
module RM2_debra = (val Registry.rm "debra")
module RM2_debra_plus = (val Registry.rm "debra+")
module RM2_hp = (val Registry.rm "hp")
module RM2_rc = (val Registry.rm "rc")
module RM2_vbr = (val Registry.rm "vbr")
module RM2_hyaline = (val Registry.rm "hyaline")
module RM2_ts = (val Registry.rm "threadscan")
module RM2_st = (val Registry.rm "stacktrack")

(* A trial runner for one structure ([Set_adapter] name) under one Record
   Manager, labelled with the scheme's name. *)
let runner ~ds (module RM : Intf.RECORD_MANAGER) =
  let module R = Trial.Run (RM) in
  let set =
    match R.Face.by_name ds with
    | Some set -> set
    | None -> invalid_arg ("Schemes.runner: unknown structure " ^ ds)
  in
  {
    rname = RM.name;
    run =
      (fun cfg ->
        (* The lazy skip list keeps up to ~2*max_level preds/succs
           protected per traversal. *)
        let params =
          if ds = "skiplist" then
            {
              cfg.params with
              Intf.Params.hp_slots = (2 * Ds.Skiplist.max_level) + 8;
            }
          else cfg.params
        in
        R.trial set ~machine:cfg.machine ~params ~duration:cfg.duration
          ~capacity:cfg.capacity ~sanitize:cfg.sanitize
          ?telemetry:cfg.telemetry ?history:cfg.history ?stall:cfg.stall
          ?chaos:cfg.chaos ~budget:cfg.budget ?max_steps:cfg.max_steps
          ~exec:(exec_of cfg) ~n:cfg.n ~range:cfg.range ~ins:cfg.ins
          ~del:cfg.del ~seed:cfg.seed ());
  }

(* A scheme's runner on [ds] under its canonical pairing. *)
let canonical ~ds scheme = runner ~ds (Registry.rm scheme)

(* Panel driver: one table per (structure, range, mix); schemes as columns,
   process counts as rows; cells in Mops/s with % overhead vs the first
   (baseline) column. *)
let run_panel ?(on_outcome = fun (_ : Trial.outcome) -> ()) ~title ~runners
    ~threads ~cfg_of () =
  let header =
    "procs"
    :: List.concat_map
         (fun r ->
           if r.rname = "none" then [ r.rname ] else [ r.rname; "vs none" ])
         runners
  in
  let series = List.map (fun r -> (r.rname, ref [])) runners in
  let backend = ref "sim" in
  let wall = ref 0. in
  let rows =
    List.map
      (fun n ->
        let outcomes =
          List.map
            (fun r ->
              let o = r.run (cfg_of n) in
              backend := o.Trial.backend;
              wall := !wall +. o.Trial.wall_seconds;
              on_outcome o;
              (r, o))
            runners
        in
        let base =
          match outcomes with (_, o) :: _ -> o.Trial.mops | [] -> 0.
        in
        string_of_int n
        :: List.concat_map
             (fun ((r : runner), (o : Trial.outcome)) ->
               let pts = List.assoc r.rname series in
               pts := (n, o.Trial.mops) :: !pts;
               let cell =
                 if o.Trial.oom then "OOM" else Report.fmt_mops o.Trial.mops
               in
               let cell =
                 match o.Trial.violations with
                 | Some v when v > 0 -> cell ^ "!SAN"
                 | _ -> cell
               in
               if r.rname = "none" then [ cell ]
               else [ cell; Report.fmt_pct (Report.rel ~base o.Trial.mops) ])
             outcomes)
      threads
  in
  Report.table ~title ~header ~rows;
  Printf.printf "  backend: %s, wall-clock %.2f s\n" !backend !wall;
  Report.chart ~title:(title ^ " — figure")
    ~series:(List.map (fun (name, pts) -> (name, List.rev !pts)) series)
    ()

let mix_name ins del =
  if ins + del = 100 then Printf.sprintf "%di-%dd" ins del
  else Printf.sprintf "%di-%dd-%ds" ins del (100 - ins - del)

(* The runner tables, (structure, variant) -> pairing and columns.  The
   skip list's updates are lock-based, so it runs no DEBRA+, as in the
   paper; the zoo carries every scheme that runs the BST. *)
let tables =
  let exp = [ "none"; "debra"; "debra+"; "hp" ] in
  let sl = [ "none"; "debra"; "hp"; "stacktrack"; "threadscan" ] in
  [
    (("bst", "exp1"), Some Registry.Exp1, exp);
    ( ("bst", "zoo"),
      None,
      [ "none"; "ebr"; "qsbr"; "debra"; "debra+"; "hp"; "rc"; "vbr"; "hyaline" ]
    );
    (("bst", "exp2"), None, exp);
    (("bst", "exp3"), Some Registry.Exp3, exp);
    (("skiplist", "exp1"), Some Registry.Exp1, sl);
    (("skiplist", "exp2"), None, sl);
    (("skiplist", "exp3"), Some Registry.Exp3, [ "none"; "debra"; "hp" ]);
    ( ("list", "exp2"),
      None,
      [ "none"; "ebr"; "debra"; "debra+"; "hp"; "vbr"; "hyaline" ] );
  ]

(* Name-indexed lookup for command-line drivers. *)
let by_name =
  List.map
    (fun (((ds, _) as key), pairing, schemes) ->
      ( key,
        List.map
          (fun scheme ->
            let e = Registry.find scheme in
            runner ~ds
              (match pairing with
              | None -> e.Registry.rm
              | Some p -> Registry.rebuild p e))
          schemes ))
    tables

let runners ~ds ~variant = List.assoc (ds, variant) by_name

let find_runner ~ds ~variant ~scheme =
  match List.assoc_opt (ds, variant) by_name with
  | None -> None
  | Some runners -> List.find_opt (fun r -> r.rname = scheme) runners
