(* Probe teeth: a slow instrumentation hook must show in the probes that
   pass through [Ctx.access] and nowhere else.  The hook adds a fixed
   delay per instrumented access; [Svar.get] and [Arena.read] make one
   access each, so both must rise several-fold, while the bare
   [Atomic.get] reference must not move.

   Run with: dune build @perfbench/perfbench-test *)

let hook_delay_ns = 300

let () =
  let group, _heap, arena = Probe.env () in
  let ctx = Runtime.Group.ctx group 0 in
  let measure name p = (Probe.measure ~name p).Probe.median_ns in
  let probes () =
    ( measure "atomic_get" (Probe.atomic_get ()),
      measure "svar_get" (Probe.svar_get ctx),
      measure "arena_read" (Probe.arena_read ctx arena) )
  in
  let a0, s0, r0 = probes () in
  let restore =
    Runtime.Ctx.add_hook ctx (fun _ ~line:_ _ ->
        let until = Pb.now_ns () + hook_delay_ns in
        while Pb.now_ns () < until do
          ()
        done)
  in
  let a1, s1, r1 = probes () in
  restore ();
  let row name before after =
    Printf.printf "%-12s %9.2f ns -> %9.2f ns  (x%.1f)\n" name before after
      (after /. before)
  in
  row "atomic_get" a0 a1;
  row "svar_get" s0 s1;
  row "arena_read" r0 r1;
  let ok =
    s1 /. s0 >= 5. && r1 /. r0 >= 5. && a1 /. a0 < 2. && a1 /. a0 > 0.5
  in
  if not ok then begin
    print_endline
      "FAIL: the slow hook must raise svar_get and arena_read at least 5x \
       and leave atomic_get within 2x";
    exit 1
  end;
  print_endline "ok"
