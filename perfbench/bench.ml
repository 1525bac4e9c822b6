(* The repository benchmark.  See README.md in this directory for the
   workloads, the metrics and how they are checked.

   usage: bench.exe --workload update|read --seed N --seconds S
                    --trace 0|1 [--provenance TEXT]

   One run executes three parts in sequence, each sized from [--seconds]:
   closed-loop BST throughput on 2 domains under none / debra+ / hp,
   open-loop KV requests on 2 domains, and the simulator on an 8-process
   BST under debra+ / hp / hyaline.  The workload fixes the operation mix
   of all three parts.  With [--trace 0] it prints the end-to-end metrics;
   with [--trace 1] it records spans and counters and prints the per-layer
   metrics.  The last line is a JSON object; the exit code is 1 when any
   output check failed.  A result file with notes and span summaries goes
   to [out_dir]. *)

type workload = {
  wname : string;
  range : int;  (** set part key range *)
  ins : int;
  del : int;
  kv_mix : string;  (** a Loadgen preset *)
}

(* update: the paper's Fig. 8 churn (10^4 keys, 50i-50d), the KV session
   mix with TTL'd puts, and the same churn in the simulator; every retire,
   limbo, pool and neutralisation path is busy.
   read: 2.5 x 10^5 keys read-only (working set far beyond L2), the read-heavy
   KV mix and a read-only simulated BST; session entry, shared reads and
   arena reads dominate and the retire path nearly idles, so a change to
   reclamation alone should leave this workload unchanged.
   Sizes are set so a run lasts about [--seconds] on a 2-core host. *)
let workloads =
  [
    {
      wname = "update";
      range = 10_000;
      ins = 50;
      del = 50;
      kv_mix = "session";
    };
    {
      wname = "read";
      range = 250_000;
      ins = 0;
      del = 0;
      kv_mix = "read_heavy";
    };
  ]

let nprocs = 2
let sim_procs = 8
let kv_rate = 20_000.
let out_dir = ".perfbench"

(* The set part repeats its measurement [rounds] times and reports the
   median: on a shared 2-core host the speed of one short rep varies by
   15-20%.  The set cells' reps are interleaved, so a change in host speed
   touches every scheme alike.

   As with the simulator below, much of the spread of the set figures
   across seeds is the prefilled tree's: on [read], the hp cell's
   throughput moved by about 30% between two seeds' trees, repeatably,
   and by 3% between the same two seeds on one tree.  So the rounds are
   split over [set_trees] trees, each from its own seed, one after
   another: every scheme gets a cell on tree 0, runs its share of the
   rounds, and the cells are dropped before tree 1 is built.  Only one
   tree per scheme is in memory at a time.  Each tree's cells begin with
   a warm-up rep that is not timed into the result. *)
let rounds = 45
let set_trees = 9

(* The simulator is deterministic, so the spread of its figures across
   seeds is the inputs'.  Most of it is the shape of the prefilled tree:
   the mean depth of a random BST of 5000 keys varies by about 4%.  Each
   scheme therefore runs on [sim_trees] trees, each from its own seed, and
   reports the pooled figure; then it runs the first tree again, and the
   two runs must agree exactly. *)
let sim_trees = 8

(* Work per second of [--seconds]: ops per domain in one set rep, KV
   requests, virtual cycles of one simulator run. *)
let set_ops_per_s = 330
let kv_requests_per_s = 5_000
let sim_cycles_per_s = 25_000

let set_schemes : (string * (module Reclaim.Intf.RECORD_MANAGER) * bool) list
    =
  let open Workload.Schemes in
  [
    ("none", (module RM1_none), false);
    ("debra_plus", (module RM2_debra_plus), true);
    ("hp", (module RM2_hp), true);
  ]

let sim_schemes : (string * (module Reclaim.Intf.RECORD_MANAGER)) list =
  let open Workload.Schemes in
  [
    ("debra_plus", (module RM2_debra_plus));
    ("hp", (module RM2_hp));
    ("hyaline", (module RM2_hyaline));
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float kb /. 1024.

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []
let fail s = failures := s :: !failures

let count ~ops ~failures =
  attempted := !attempted + ops;
  failed := !failed + failures

let sum_by f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum_by f l = List.fold_left (fun a x -> a + f x) 0 l
let median_by f l = Pb.median (Array.of_list (List.map f l))

(* What a scheme's set cells leave once their structures are dropped. *)
type set_cell = {
  mutable setup_s : float;  (** building all of the scheme's trees *)
  mops : float list ref;  (** one per untraced rep after warm-up *)
  counters : Set_part.counters;  (** summed over traced reps *)
  mixed : Set_part.counters;  (** of the traced run's mixed rep *)
  mutable limbo : int;  (** records in limbo after each tree's last rep *)
  mutable records : int;  (** most records claimed from any one arena *)
}

type run = {
  set : (string * set_cell) list;
  kv : Kv_part.result;
  sims : (string * Sim_part.result list) list;
  traced_cpu : float;
  plain_cpu : float;
}

(* The parts run one after another.  Each part's structures are dropped
   and collected before the next begins, so no part pays the collector to
   mark or sweep another part's data. *)
let run_parts w ~seed ~seconds ~trace =
  let ops_per_domain = max 1_000 (int_of_float (seconds *. float set_ops_per_s)) in
  let kv_requests = max 1_000 (int_of_float (seconds *. float kv_requests_per_s)) in
  let duration = max 50_000 (int_of_float (seconds *. float sim_cycles_per_s)) in
  (* The traced run makes a plain and a traced rep of every set cell per
     round: the gap between them is the tracing overhead, and the plain
     reps still give the throughput figures. *)
  let set_reps_per_round = if trace then 2 else 1 in
  let set_cfg tree =
    { Set_part.range = w.range; ins = w.ins; del = w.del; nprocs;
      ops_per_domain; reps = 1 + (rounds / set_trees * set_reps_per_round);
      seed = (seed * set_trees) + tree }
  in
  let mix =
    match Loadgen.mix_of_string w.kv_mix with
    | Some m -> m
    | None -> die "unknown mix %s" w.kv_mix
  in
  let kv_cfg =
    { Kv_part.requests = kv_requests; rate = kv_rate; nkeys = 4096; mix;
      nprocs; shards = 4; seed }
  in
  let sim_cfg tree =
    { Sim_part.range = 10_000; ins = w.ins; del = w.del; nprocs = sim_procs;
      duration; seed = (seed * sim_trees) + tree }
  in
  Pb.note "set: EFRB BST, %d keys, %di-%dd, %d domains, %d trees, %d+%d reps \
           x %d ops/domain"
    w.range w.ins w.del nprocs set_trees set_trees (rounds * set_reps_per_round)
    ops_per_domain;
  Pb.note
    "kv: skip list x4 shards, debra+, 4096 keys zipfian 0.99, %s mix, Poisson \
     %.0f req/s, %d requests, %d domains"
    w.kv_mix kv_rate kv_requests nprocs;
  Pb.note "sim: EFRB BST, 10000 keys, %di-%dd, %d processes on i7-4770, %d \
           virtual cycles per run, %d trees per scheme"
    w.ins w.del sim_procs duration sim_trees;
  let stores =
    if trace then Array.init nprocs (fun _ -> Span.create_store ~cap:(1 lsl 16) ())
    else [||]
  in
  let set =
    Span.with_span "part.set" @@ fun part ->
    let set =
      List.map
        (fun (name, rm, reclaims) ->
          ( name, rm, reclaims,
            { setup_s = 0.; mops = ref []; counters = Set_part.zero ();
              mixed = Set_part.zero (); limbo = 0; records = 0 } ))
        set_schemes
    in
    let traced_cpu = ref 0. and plain_cpu = ref 0. and rep = ref 0 in
    let set_rep kind (name, (cell : Set_part.cell), c) =
      let r =
        Span.with_span ~parent:part ("set.rep." ^ name) (fun id ->
            cell.run_rep ~rep:!rep
              ~spans:(if kind = `Traced then Some (stores, id) else None))
      in
      count ~ops:r.attempted ~failures:r.failed;
      let cpu = Pb.fsum r.cpu_s in
      (if r.failed = 0 then
         match kind with
         | `Warm_up -> ()
         | `Traced ->
             traced_cpu := !traced_cpu +. cpu;
             Set_part.add_into c.counters r.counters
         | `Plain ->
             (* Each domain's rate over its own CPU time, summed. *)
             let per_domain = float r.attempted /. float nprocs in
             let mops =
               Array.fold_left (fun a c -> a +. (per_domain /. c)) 0. r.cpu_s
               /. 1e6
             in
             c.mops := mops :: !(c.mops);
             plain_cpu := !plain_cpu +. cpu);
      incr rep
    in
    for tree = 0 to set_trees - 1 do
      let cells =
        List.map
          (fun (name, rm, reclaims, c) ->
            let cell = Set_part.make rm ~scheme:name ~reclaims (set_cfg tree) in
            c.setup_s <- c.setup_s +. cell.setup_s;
            (name, cell, c))
          set
      in
      List.iter (set_rep `Warm_up) cells;
      for _ = 1 to rounds / set_trees do
        List.iter (set_rep `Plain) cells;
        if trace then List.iter (set_rep `Traced) cells
      done;
      (* Neither workload has every operation kind, so the traced run ends
         with one rep of [Set_part.mixed] per scheme: the ds.* spans then
         cover inserts, deletes and lookups, and records are retired on
         [read] too. *)
      if trace && tree = set_trees - 1 then
        List.iter
          (fun (name, (cell : Set_part.cell), c) ->
            let r =
              Span.with_span ~parent:part ("set.mixed." ^ name) (fun id ->
                  cell.run_mixed ~rep:!rep ~spans:(Some (stores, id)))
            in
            count ~ops:r.attempted ~failures:r.failed;
            Set_part.add_into c.mixed r.counters;
            incr rep)
          cells;
      List.iter
        (fun (_, (cell : Set_part.cell), c) ->
          Option.iter fail (cell.check ());
          c.limbo <- c.limbo + cell.limbo ();
          c.records <- max c.records (cell.records ()))
        cells;
      Gc.full_major ()
    done;
    List.iter
      (fun (name, _, _, c) ->
        let a = Array.of_list !(c.mops) in
        if Array.length a = 0 then fail ("set " ^ name ^ ": every rep failed");
        Pb.note "set %s: %.4f Mops/s (median of %d reps, spread %.3f), at most \
                 %d records claimed per arena"
          name (Pb.median a) (Array.length a) (Pb.spread a) c.records)
      set;
    (List.map (fun (name, _, _, c) -> (name, c)) set, !traced_cpu, !plain_cpu)
  in
  Gc.full_major ();
  let kv =
    Span.with_span "part.kv" @@ fun part ->
    let kv = Kv_part.setup kv_cfg in
    let spans =
      if trace then Some (Span.create_store ~cap:(2 * kv_requests) (), part)
      else None
    in
    Kv_part.run ?spans kv;
    let r = Kv_part.finish kv in
    count ~ops:r.attempted ~failures:r.failed;
    if r.mismatches > 0 then
      fail (Printf.sprintf "kv: %d gets returned a wrong value" r.mismatches);
    Option.iter fail r.invariant;
    r
  in
  Gc.full_major ();
  let sims =
    Span.with_span "part.sim" @@ fun part ->
    List.map
      (fun (name, rm) ->
        let run tree =
          (* Each run starts from a collected heap.  Otherwise the peak RSS
             depends on how many dead runs the collector has yet to sweep:
             it moved by 20% across seeds on [update]. *)
          Gc.full_major ();
          let r =
            Span.with_span ~parent:part ("sim.run." ^ name) (fun _ ->
                Sim_part.run rm ~scheme:name (sim_cfg tree))
          in
          count ~ops:r.ops ~failures:0;
          Option.iter fail r.check;
          r
        in
        let runs = List.init sim_trees run in
        let r : Sim_part.result = List.hd runs and again = run 0 in
        if
          again.ops <> r.ops
          || again.virtual_time <> r.virtual_time
          || again.steps <> r.steps
        then fail ("sim " ^ name ^ ": two runs of one seed disagree");
        Pb.note "sim %s: %d ops over %d trees, host CPU %.4f s"
          name
          (isum_by (fun (x : Sim_part.result) -> x.ops) runs)
          sim_trees
          (sum_by (fun (x : Sim_part.result) -> x.host_s) runs);
        (name, runs))
      sim_schemes
  in
  let set, traced_cpu, plain_cpu = set in
  { set; kv; sims; traced_cpu; plain_cpu }

(* ---- probes (traced run) ---- *)

let run_probes () =
  Span.with_span "part.probes" @@ fun parent ->
  let put name (s : Probe.sample) =
    Pb.note "probe %s: min %.2f ns, median %.2f ns, spread %.3f, %.2f words"
      name s.min_ns s.median_ns s.spread s.words;
    Pb.add name "ns" s.median_ns
  in
  let m name p = Probe.measure ~parent ~name p in
  let group, heap, arena = Probe.env () in
  let ctx = Runtime.Group.ctx group 0 in
  put "runtime.atomic_get_ns" (m "atomic_get" (Probe.atomic_get ()));
  put "runtime.svar_get_ns" (m "svar_get" (Probe.svar_get ctx));
  put "runtime.svar_cas_ns" (m "svar_cas" (Probe.svar_cas ctx));
  let read = m "arena_read" (Probe.arena_read ctx arena) in
  put "arena.read_ns" read;
  Pb.add "arena.read_words" "words" read.words;
  for k = 0 to 2 do
    if k > 0 then ignore (Memory.Heap.add_sink heap (fun _ _ -> ()));
    put
      (Printf.sprintf "arena.smr_event_emit_ns.sinks%d" k)
      (m (Printf.sprintf "emit%d" k) (Probe.emit ctx heap))
  done;
  List.iter
    (fun (name, (module RM : Reclaim.Intf.RECORD_MANAGER)) ->
      let module P = Probe.Rm (RM) in
      let pre = "reclaim." ^ name ^ "." in
      put (pre ^ "leave_enter_ns") (m (name ^ ".leave_enter") (P.leave_enter ()));
      put (pre ^ "protect_unprotect_ns")
        (m (name ^ ".protect_unprotect") (P.protect_unprotect ()));
      let ar = m (name ^ ".alloc_retire") (P.alloc_retire ()) in
      put (pre ^ "alloc_retire_ns") ar;
      Pb.add (pre ^ "alloc_retire_words") "words" ar.words)
    Probe.schemes

(* ---- metrics ---- *)

let sim_runs (r : run) = List.concat_map snd r.sims

(* As bench/sweep.ml defines it: virtual time summed over the processes,
   per completed operation; pooled over a scheme's trees. *)
let cycles_per_op runs =
  float sim_procs
  *. float (isum_by (fun (x : Sim_part.result) -> x.virtual_time) runs)
  /. float (isum_by (fun (x : Sim_part.result) -> x.ops) runs)

let end_to_end (r : run) =
  (* Set-up is timed per cell: the median set cell, the KV store with its
     plan, and the median simulator run's prefill. *)
  Pb.add "setup_s" "s"
    (median_by (fun (_, (c : set_cell)) -> c.setup_s) r.set
    +. r.kv.setup_s
    +. median_by (fun (x : Sim_part.result) -> x.setup_s) (sim_runs r));
  Pb.add "peak_rss_mb" "MB" (peak_rss_mb ());
  Pb.add "ok_frac" "ratio" (float (!attempted - !failed) /. float !attempted);
  List.iter
    (fun (name, c) ->
      Pb.add ("mops." ^ name) "Mops/s" (Pb.median (Array.of_list !(c.mops))))
    r.set;
  List.iter
    (fun (name, runs) ->
      Pb.add ("sim.cycles_per_op." ^ name) "cycles" (cycles_per_op runs))
    r.sims

let per_layer (r : run) ~gc0 ~gc1 =
  let kv = r.kv in
  let dp = List.assoc "debra_plus" r.set in
  let c = dp.counters in
  let per_op x = float x /. float (max 1 c.ops) in
  Pb.add "runtime.reads_per_op" "count" (per_op c.reads);
  Pb.add "runtime.writes_per_op" "count" (per_op c.writes);
  Pb.add "runtime.cas_per_op" "count" (per_op c.cas);
  Pb.add "runtime.fences_per_op" "count" (per_op c.fences);
  Pb.add "reclaim.allocs_per_op" "count" (per_op c.allocs);
  Pb.add "reclaim.retires_per_op" "count" (per_op c.retires);
  (* Pooled schemes hand reclaimed records to the pool, not back to the
     arena, so "freed" counts records that left limbo.  The mixed rep is
     counted in, so that [read], whose reps retire nothing, has retires. *)
  Pb.add "reclaim.frees_per_retire" "ratio"
    (float (c.reclaimed + dp.mixed.reclaimed)
    /. float (max 1 (c.retires + dp.mixed.retires)));
  Pb.add "reclaim.limbo_end" "records" (float dp.limbo);
  Pb.add "reclaim.signals_sent" "count" (float c.signals);
  Pb.add "reclaim.neutralized" "count" (float c.neutralized);
  List.iter
    (fun k ->
      Pb.add ("ds." ^ k ^ "_ns") "ns" (Pb.median (Span.durations ("ds." ^ k))))
    [ "insert"; "delete"; "contains" ];
  Pb.add "ds.words_per_op" "words" (c.minor_words /. float (max 1 c.ops));
  List.iter
    (fun k ->
      Pb.add ("kv." ^ k ^ "_ns") "ns"
        (Pb.percentile_sorted (List.assoc k kv.service_ns) 50.))
    [ "get"; "put"; "delete" ];
  Pb.add "kv.alloc_retries" "count" (float kv.alloc_retries);
  Pb.add "kv.emergency_reclaims" "count" (float kv.emergency_reclaims);
  Pb.add "kv.limbo_end" "records" (float kv.limbo_end);
  (* User-facing timings that the host's speed changes move by more than
     any bound allows (README.md): reported here, not gated. *)
  Pb.add "kv.p50_us" "us" (Pb.percentile_sorted kv.latency_ns 50. /. 1e3);
  let tail_p, tail_ns = Pb.tail_sorted kv.latency_ns in
  Pb.add "kv.tail_us" "us" (tail_ns /. 1e3);
  Pb.add "kv.tail_percentile" "%" tail_p;
  Pb.add "loadgen.wait_us" "us" (Pb.percentile_sorted kv.wait_ns 99. /. 1e3);
  let all = List.map (fun (_, c) -> c.counters) r.set in
  Pb.add "gc.minor_words_per_op" "words"
    (sum_by (fun (c : Set_part.counters) -> c.minor_words) all
    /. float (max 1 (isum_by (fun (c : Set_part.counters) -> c.ops) all)));
  Pb.add "gc.minor_collections" "count"
    (float (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  Pb.add "gc.major_collections" "count"
    (float (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let runs = sim_runs r in
  let isum f = float (isum_by f runs) in
  let steps = isum (fun (x : Sim_part.result) -> x.steps) in
  Pb.add "sim.host_s" "s" (sum_by (fun (x : Sim_part.result) -> x.host_s) runs);
  Pb.add "sim.steps" "count" steps;
  Pb.add "sim.host_ns_per_step" "ns"
    (sum_by (fun (x : Sim_part.result) -> x.host_s) runs *. 1e9 /. steps);
  Pb.add "sim.minor_words_per_step" "words"
    (sum_by (fun (x : Sim_part.result) -> x.minor_words) runs /. steps);
  Pb.add "sim.context_switches" "count"
    (isum (fun (x : Sim_part.result) -> x.context_switches));
  let l1 = isum (fun (x : Sim_part.result) -> x.cache.l1_hits)
  and llc = isum (fun (x : Sim_part.result) -> x.cache.llc_hits)
  and mem = isum (fun (x : Sim_part.result) -> x.cache.mem_accesses) in
  Pb.add "machine.l1_hit_rate" "ratio" (l1 /. Float.max 1. (l1 +. llc +. mem));
  Pb.add "machine.llc_hit_rate" "ratio" (llc /. Float.max 1. (llc +. mem));
  Pb.add "machine.invalidations_per_op" "count"
    (isum (fun (x : Sim_part.result) -> x.cache.invalidations)
    /. isum (fun (x : Sim_part.result) -> x.ops));
  run_probes ();
  Pb.add "trace.overhead_pct" "%" ((r.traced_cpu /. r.plain_cpu -. 1.) *. 100.)

(* The result file: provenance, notes, metrics and, for the traced run,
   the per-span summaries. *)
let write_result ~dir ~name ~provenance ~correct =
  let path = Filename.concat dir name in
  let oc = open_out path in
  let q = Pb.json_string in
  Printf.fprintf oc "{\n  \"provenance\": %s,\n  \"correct\": %b,\n  \"attempted\": %d,\n  \"failed\": %d,\n"
    (q provenance) correct !attempted !failed;
  Printf.fprintf oc "  \"notes\": [%s],\n"
    (String.concat ",\n    " (List.rev_map q !Pb.notes));
  Printf.fprintf oc "  \"failures\": [%s],\n" (String.concat ", " (List.rev_map q !failures));
  Printf.fprintf oc "  \"metrics\": {%s},\n" (Pb.metrics_json ());
  Printf.fprintf oc "  \"spans\": [%s]\n}\n"
    (String.concat ",\n    "
       (List.map
          (fun (s : Span.summary) ->
            Printf.sprintf
              "{\"name\": %s, \"count\": %d, \"total_ns\": %.0f, \"self_ns\": \
               %.0f, \"p50_ns\": %.0f, \"p99_ns\": %.0f}"
              (q s.s_name) s.count s.total_ns s.self_ns s.p50_ns s.p99_ns)
          (Span.summaries ())));
  close_out oc

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let provenance = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME update|read");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--provenance", Arg.Set_string provenance, "TEXT recorded with the result");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !seed < 0 then die "--seed is required";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let gc0 = Gc.quick_stat () in
  let r = run_parts w ~seed ~seconds ~trace in
  let gc1 = Gc.quick_stat () in
  let lat = r.kv.latency_ns in
  let n = Array.length lat in
  let tail_p, tail_ns = Pb.tail_sorted lat in
  Pb.note "kv: p50 %.2f us, p90 %.2f us, tail p%g %.2f us (%d of %d requests beyond), max %.2f us"
    (Pb.percentile_sorted lat 50. /. 1e3) (Pb.percentile_sorted lat 90. /. 1e3)
    tail_p (tail_ns /. 1e3) (n - 1 - Pb.rank_index n tail_p) n (lat.(n - 1) /. 1e3);
  if trace then per_layer r ~gc0 ~gc1 else end_to_end r;
  let correct = !failures = [] in
  let provenance =
    Printf.sprintf "%s nproc=%d workload=%s seed=%d seconds=%g trace=%b attempted=%d"
      !provenance (Domain.recommended_domain_count ()) w.wname seed seconds trace
      !attempted
  in
  List.iter (fun s -> Printf.printf "note: %s\n" s) (List.rev !Pb.notes);
  List.iter (fun s -> Printf.printf "CHECK FAILED: %s\n" s) (List.rev !failures);
  List.iter
    (fun (m : Pb.metric) -> Printf.printf "%-44s %16.6f %s\n" m.name m.value m.unit_)
    (List.rev !Pb.metrics);
  Printf.printf "provenance: %s\n" provenance;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  write_result ~dir:out_dir ~provenance ~correct
    ~name:(Printf.sprintf "result-%s-seed%d-trace%d.json" w.wname seed (Bool.to_int trace));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (Pb.metrics_json ());
  if not correct then exit 1
