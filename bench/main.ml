(** Benchmark harness entry point.

    One argument per paper artifact:
    - exp1     Fig. 8 (left): overhead of reclamation, no reuse
    - exp2     Fig. 8 (right): reclaimed records reused through the pool
    - exp2-t4  Fig. 9 (left): Experiment 2 on the 64-context NUMA model
    - exp3     Fig. 10: malloc-style allocator
    - memfig   Fig. 9 (right): memory allocated + neutralization counts
    - schemes  Fig. 2: summary table of reclamation schemes
    - summary  §7/§8 scalar claims, paper vs measured
    - ablate   DEBRA design-choice ablations (§4)
    - e-stall  stalled-process campaign: limbo time series, DEBRA vs DEBRA+
    - e-chaos  fault-injection campaign: crashes, signal loss, bounded memory
    - e-scale  context-count scaling campaign (64 -> 256 -> 1024): per-op
               cost divergence HP vs DEBRA/DEBRA+, plus scheduler and
               explorer throughput baselines (BENCH_SIM.json)
    - sweep    VBR / Hyaline vs DEBRA+ on two structures and both
               backends (BENCH_SWEEP.json; sim cells regression-gated)
    - all      everything above

    [--full] uses the paper-scale key ranges and thread counts (slow); the
    default "quick" scale shrinks the big key range and the grid.
    [--json] also writes one BENCH_<experiment>.json per experiment;
    [--trace FILE] / [--metrics-out FILE] apply to e-stall;
    [--chaos-seed N] replays one e-chaos seed instead of the sweep.

    Linearizability plumbing (lib/lincheck):
    [--explore BUDGET] runs the systematic-exploration matrix (every
    scheme x structure, bounded preemptions, every history checked)
    instead of the experiments; [--check-linearizability] records and
    WGL-checks each trial's history (bench-scale histories usually
    exceed the checker budget — it says so honestly); [--history-out
    FILE] dumps the last trial's history as JSON. *)

let known =
  [
    "exp1"; "exp2"; "exp2-t4"; "exp3"; "memfig"; "schemes"; "summary";
    "ablate"; "e-stall"; "e-chaos"; "kv"; "e-overload"; "e-scale";
    "sweep"; "all";
  ]

let run_one ~scale = function
  | "exp1" -> Experiments.exp1 ~scale
  | "exp2" -> Experiments.exp2 ~scale
  | "exp2-t4" -> Experiments.exp2_t4 ~scale
  | "exp3" -> Experiments.exp3 ~scale
  | "memfig" -> Experiments.memfig ~scale
  | "schemes" -> Fig2.print ()
  | "summary" -> Summary.run ~scale
  | "ablate" -> Experiments.ablate ~scale
  | "e-stall" -> Stall.run ~scale
  | "e-chaos" -> E_chaos.run ~scale
  | "kv" -> Kv_bench.run ~scale
  | "e-overload" -> E_overload.run ~scale
  | "e-scale" -> E_scale.run ~scale
  | "sweep" -> Sweep.run ~scale
  | name -> Printf.eprintf "unknown experiment %S\n" name

(* With --json, each experiment's outcomes (accumulated by
   Experiments.record_outcome) are drained into BENCH_<experiment>.json. *)
let run_one_json ~scale name =
  Experiments.json_rows := [];
  run_one ~scale name;
  if !Experiments.json then begin
    (* The kv campaign's baseline is checked in as BENCH_KV.json, the
       e-scale campaign's as BENCH_SIM.json, and the VBR/Hyaline sweep's
       as BENCH_SWEEP.json. *)
    let file =
      Printf.sprintf "BENCH_%s.json"
        (match name with
        | "kv" -> "KV"
        | "e-scale" -> "SIM"
        | "sweep" -> "SWEEP"
        | n -> n)
    in
    let doc =
      Telemetry.Json.Obj
        [
          ("experiment", Telemetry.Json.String name);
          ( "results",
            Telemetry.Json.List (List.rev !Experiments.json_rows) );
        ]
    in
    let oc = open_out file in
    output_string oc (Telemetry.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "json results written to %s\n%!" file
  end

(* --explore: the scheme x structure exploration matrix (the same cells
   as `dune build @lincheck-matrix`), scaled by --full; --explore-domains
   fans the replay jobs across worker domains with identical verdicts. *)
let run_explore ~budget ~workers ~full =
  let max_runs = if full then 2_000 else 300 in
  let cfg =
    {
      Workload.Lin_harness.default_config with
      nprocs = 2;
      ops_per_proc = 3;
      key_range = 2;
      prefill = 1;
    }
  in
  Printf.printf
    "systematic exploration matrix: %d procs x %d ops, preemption budget %d, <=%d schedules/cell%s\n%!"
    cfg.Workload.Lin_harness.nprocs cfg.Workload.Lin_harness.ops_per_proc
    budget max_runs
    (if workers > 1 then Printf.sprintf ", %d domains" workers else "");
  let failures = ref 0 in
  List.iter
    (fun ds ->
      List.iter
        (fun scheme ->
          let v =
            Workload.Lin_harness.explore ~budget ~max_runs ~workers ~ds
              ~scheme cfg
          in
          (match v with
          | Lincheck.Explore.Fail _ -> incr failures
          | Lincheck.Explore.Pass _ -> ());
          Printf.printf "%-9s x %-11s %s\n%!" ds scheme
            (Workload.Lin_harness.verdict_summary v))
        Workload.Lin_harness.scheme_names)
    Workload.Lin_harness.ds_names;
  if !failures > 0 then begin
    Printf.eprintf "exploration: %d cell(s) rejected\n" !failures;
    exit 1
  end

let main experiments backend full sanitize json trace metrics_out chaos_seed
    explore explore_domains check_lin history_out
    (shards, structure, dist, arrival, rate, requests, nkeys, mix, slo, procs,
     explore_free, kv_schemes) (overload_requests, overload_schemes) =
  Kv_bench.shards := shards;
  Kv_bench.structure := structure;
  Kv_bench.dist_name := dist;
  Kv_bench.arrival_name := arrival;
  Kv_bench.arrival_rate := rate;
  Kv_bench.requests := requests;
  Kv_bench.nkeys := nkeys;
  Kv_bench.mix_name := mix;
  Kv_bench.slo_spec := slo;
  Kv_bench.nprocs := procs;
  Kv_bench.explore_free := explore_free;
  Kv_bench.scheme_filter := kv_schemes;
  E_overload.requests := overload_requests;
  E_overload.scheme_filter := overload_schemes;
  E_scale.explore_domains := explore_domains;
  match explore with
  | Some budget -> run_explore ~budget ~workers:explore_domains ~full
  | None ->
  Experiments.backend := backend;
  Experiments.sanitize := sanitize;
  Experiments.json := json;
  Experiments.check_lin := check_lin;
  Experiments.history_out := history_out;
  Stall.trace_file := trace;
  Stall.metrics_file := metrics_out;
  E_chaos.replay_seed := chaos_seed;
  E_overload.replay_seed := chaos_seed;
  let scale =
    if full then Experiments.full_scale else Experiments.quick_scale
  in
  let experiments = if experiments = [] then [ "all" ] else experiments in
  let experiments =
    if List.mem "all" experiments then
      [
        "schemes"; "exp1"; "exp2"; "exp2-t4"; "exp3"; "memfig"; "summary";
        "ablate"; "e-stall"; "e-chaos";
      ]
    else experiments
  in
  Printf.printf
    "DEBRA/DEBRA+ reproduction benchmark harness (%s scale, %s backend)\n\
     machine models: %s | %s\n\
     %!"
    (if full then "full" else "quick")
    (Exec.Backend.to_string backend)
    Machine.Config.intel_i7_4770.Machine.Config.name
    Machine.Config.oracle_t4_1.Machine.Config.name;
  List.iter (run_one_json ~scale) experiments;
  if !Experiments.lin_failures > 0 then begin
    Printf.eprintf "linearizability: %d trial(s) rejected\n"
      !Experiments.lin_failures;
    exit 1
  end;
  if !E_chaos.failures > 0 then begin
    Printf.eprintf "e-chaos: %d configuration(s) failed\n" !E_chaos.failures;
    exit 1
  end;
  if !E_overload.failures > 0 then begin
    Printf.eprintf "e-overload: %d cell(s) missed their expectation\n"
      !E_overload.failures;
    exit 1
  end;
  if !E_scale.failures > 0 then begin
    Printf.eprintf "e-scale: %d structure(s) missed their divergence check\n"
      !E_scale.failures;
    exit 1
  end

open Cmdliner

let experiments_arg =
  let doc =
    Printf.sprintf "Experiments to run: %s." (String.concat ", " known)
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let backend_arg =
  let parse s =
    match Exec.Backend.of_string s with
    | Ok b -> Ok b
    | Error msg -> Error (`Msg msg)
  in
  let print fmt b = Format.pp_print_string fmt (Exec.Backend.to_string b) in
  let backend_conv = Arg.conv (parse, print) in
  let doc =
    "Execution backend: $(b,sim) (deterministic virtual-time simulator, the \
     default; all published numbers) or $(b,domains) (real OCaml 5 domains \
     on the wall clock; non-deterministic, no cache model, sim-only \
     features degrade gracefully)."
  in
  Arg.(value & opt backend_conv `Sim & info [ "backend" ] ~docv:"BACKEND" ~doc)

let full_arg =
  let doc = "Run at paper scale (large key ranges, dense thread grid)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let sanitize_arg =
  let doc =
    "Run every trial under the shadow-state SMR sanitizer (lib/sanitizer): \
     violations are reported on stderr and flagged !SAN in the tables.  \
     Slows trials down and perturbs timing; all published numbers are \
     measured with this off."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let json_arg =
  let doc =
    "Attach a telemetry recorder to every trial and write one \
     BENCH_<experiment>.json per experiment (scheme, nprocs, Mops/s, peak \
     bytes, limbo, latency percentiles)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event (catapult JSON) file for the e-stall \
     experiment's DEBRA+ run; load it in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let chaos_seed_arg =
  let doc =
    "Replay the e-chaos campaign with this single plan seed (printed by a \
     failing run) instead of the default seed sweep."
  in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let metrics_arg =
  let doc =
    "Write the e-stall experiment's full sampled time series (limbo, epoch \
     lag, pool occupancy per scheme) as JSON to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let explore_arg =
  let doc =
    "Run the systematic schedule-exploration matrix (every reclamation      scheme x every structure, at most $(docv) preemptions per schedule,      each explored history checked for linearizability) instead of the      experiments.  --full raises the per-cell schedule cap from 300 to      2000.  Exits 1 with a replayable preemption schedule on a violation."
  in
  Arg.(
    value & opt (some int) None & info [ "explore" ] ~docv:"BUDGET" ~doc)

let explore_domains_arg =
  let doc =
    "Worker domains for schedule exploration ($(b,--explore) and the \
     e-scale explore-throughput baseline).  Replay jobs fan out across \
     $(docv) domains with run counts, branch points and verdicts identical \
     to the serial explorer (1, the default)."
  in
  Arg.(
    value & opt int 1 & info [ "explore-domains" ] ~docv:"N" ~doc)

let check_lin_arg =
  let doc =
    "Record every trial's operation history and check it against the      sequential set specification (WGL checker).  Exponential in      concurrency: bench-scale histories typically exceed the checker's      node budget, which is reported per trial; intended for shrunken      runs.  Exits 1 if any checked trial is non-linearizable."
  in
  Arg.(value & flag & info [ "check-linearizability" ] ~doc)

let history_out_arg =
  let doc =
    "Record operation histories and write the last trial's history as      JSON to $(docv) (the format of test/histories/)."
  in
  Arg.(
    value & opt (some string) None & info [ "history-out" ] ~docv:"FILE" ~doc)

(* Flags of the kv experiment (the open-loop E-kv campaign). *)
let kv_args =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"kv: number of store shards (one record manager each).")
  in
  let structure =
    Arg.(
      value & opt string "skiplist"
      & info [ "structure" ] ~docv:"DS"
          ~doc:
            "kv: index structure per shard: $(b,skiplist), $(b,bst), \
             $(b,hm_list) or $(b,hash).")
  in
  let dist =
    Arg.(
      value & opt string "zipfian"
      & info [ "dist" ] ~docv:"DIST"
          ~doc:
            "kv: key-popularity distribution: $(b,uniform), $(b,zipfian) \
             (theta 0.99) or $(b,zipfian:<theta>).")
  in
  let arrival =
    Arg.(
      value & opt string "burst"
      & info [ "arrival" ] ~docv:"PATTERN"
          ~doc:
            "kv: open-loop arrival pattern: $(b,poisson), $(b,burst) (8x \
             peaks) or $(b,burst:<peak-multiplier>).")
  in
  let rate =
    Arg.(
      value & opt float 400_000.0
      & info [ "arrival-rate" ] ~docv:"R"
          ~doc:
            "kv: base arrival rate in requests per second of the backend \
             clock.")
  in
  let requests =
    Arg.(
      value & opt int 0
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "kv: total requests per scheme (0 = 20000, or 100000 with \
             --full).")
  in
  let nkeys =
    Arg.(
      value & opt int 4096
      & info [ "nkeys" ] ~docv:"N" ~doc:"kv: size of the key universe.")
  in
  let mix =
    Arg.(
      value & opt string "session"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "kv: operation mix preset: $(b,read_heavy), $(b,session), \
             $(b,write_heavy) or $(b,scan_heavy).")
  in
  let slo =
    Arg.(
      value & opt string "p99=25000,p999=120000"
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "kv: latency budget per percentile in ns, e.g. \
             $(b,p50=2000,p99=25000,p999=120000); empty = no budget.")
  in
  let procs =
    Arg.(
      value & opt int 4
      & info [ "kv-procs" ] ~docv:"N" ~doc:"kv: worker processes.")
  in
  let explore_free =
    Arg.(
      value & flag
      & info [ "explore-free" ]
          ~doc:
            "kv: run every sim cell twice and fail unless the two JSON \
             rows are byte-identical (deterministic-replay self-check; \
             skipped on the domains backend).")
  in
  let schemes =
    Arg.(
      value & opt string ""
      & info [ "kv-schemes" ] ~docv:"LIST"
          ~doc:
            "kv: comma-separated subset of schemes to run (default all: \
             none,ebr,debra,debra+,hp,vbr,hyaline).")
  in
  Term.(
    const (fun a b c d e f g h i j k l -> (a, b, c, d, e, f, g, h, i, j, k, l))
    $ shards $ structure $ dist $ arrival $ rate $ requests $ nkeys $ mix
    $ slo $ procs $ explore_free $ schemes)

(* Flags of the e-overload campaign. *)
let overload_args =
  let requests =
    Arg.(
      value & opt int 0
      & info [ "overload-requests" ] ~docv:"N"
          ~doc:
            "e-overload: requests per cell (0 = 6000, or 20000 with \
             --full).")
  in
  let schemes =
    Arg.(
      value & opt string ""
      & info [ "overload-schemes" ] ~docv:"LIST"
          ~doc:
            "e-overload: comma-separated subset of schemes to run (default \
             all: none,ebr,qsbr,debra,debra+,hp,rc,ts,st).")
  in
  Term.(const (fun a b -> (a, b)) $ requests $ schemes)

let cmd =
  let doc = "Reproduce the tables and figures of the DEBRA/DEBRA+ paper" in
  Cmd.v
    (Cmd.info "debra-bench" ~doc)
    Term.(
      const main $ experiments_arg $ backend_arg $ full_arg $ sanitize_arg
      $ json_arg $ trace_arg $ metrics_arg $ chaos_seed_arg $ explore_arg
      $ explore_domains_arg $ check_lin_arg $ history_out_arg $ kv_args
      $ overload_args)

let () = exit (Cmd.eval cmd)
