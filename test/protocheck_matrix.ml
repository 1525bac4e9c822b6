(* Symbolic SMR protocol check: every scheme x structure cell, both
   branches of every guard/CAS within the deny budget.  Writes the report
   to the path given as the first argument (PROTOCHECK_REPORT.json in the
   cwd by default) and exits nonzero if any cell has a protocol violation
   or a crash.  Run with: dune build @protocheck *)

let () =
  let t0 = Unix.gettimeofday () in
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "PROTOCHECK_REPORT.json"
  in
  let cells = Protocheck.Matrix.all () in
  List.iter (fun c -> print_endline (Protocheck.Report.summary c)) cells;
  Protocheck.Report.write ~path cells;
  let dirty = List.filter (fun c -> not (Protocheck.Report.clean c)) cells in
  Printf.printf
    "\nprotocheck: %d cells, %d paths, %d violating cell(s) (%.1fs)\n"
    (List.length cells)
    (List.fold_left (fun a c -> a + c.Protocheck.Report.paths) 0 cells)
    (List.length dirty)
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun c ->
      Printf.printf "VIOLATING CELL: %s\n" (Protocheck.Report.summary c);
      match c.Protocheck.Report.counterexample with
      | None -> ()
      | Some ce ->
          Printf.printf "  deny set: [%s]\n"
            (String.concat "; " (List.map string_of_int ce.deny));
          List.iter
            (fun v ->
              Format.printf "  %a@." Protocheck.Engine.pp_violation v;
              List.iter (fun line -> Printf.printf "    %s\n" line)
                v.Protocheck.Engine.trace)
            ce.violations)
    dirty;
  if dirty <> [] then exit 1
