(* The symbolic SMR protocol analyzer (lib/protocheck), both directions:

   - completeness: the full 4-structure x 11-scheme matrix is clean on
     every explored path (the typed structures obey protect-before-deref,
     no-access-after-retire, retire-only-after-unlink under every scheme);
   - sharpness: the seeded mutants are rejected with concrete
     counterexample paths — the grace-skipping EBR (premature-free on the
     all-grant path), the validation-skipping HP (skipped-validation, which
     needs an adversarial acquire decision to surface), and a raw-API BST
     that never protects and retires without an unlink witness;
   - the typestate surface itself: a second retire of the same unlinked
     witness is rejected at the API boundary, which is why the runtime
     sanitizer no longer carries a double-retire check. *)

open Protocheck

module CE = Cell.Make (Broken_schemes.RM_broken_ebr)
module CH = Cell.Make (Broken_schemes.RM_broken_hp)
module RM_hp = (val Reclaim.Registry.rm "hp")
module MB = Mutant_bst.Make (RM_hp)

let has_kind k (ce : Report.counterexample) =
  List.exists (fun v -> v.Engine.kind = k) ce.violations

let find_kind k (ce : Report.counterexample) =
  List.find (fun v -> v.Engine.kind = k) ce.violations

(* Every cell of the real matrix must be clean on every explored path.
   Diverged paths (a structure that stops making progress under
   adversarial decisions, e.g. HP on the helping BST) are recorded but are
   a progress property, not a safety violation. *)
let test_clean_matrix () =
  let cells = Matrix.all () in
  Alcotest.(check int) "matrix size" 44 (List.length cells);
  List.iter
    (fun c ->
      if not (Report.clean c) then
        Alcotest.failf "cell %s is not clean" (Report.summary c))
    cells

let test_broken_ebr_rejected () =
  let c = CE.check Report.List in
  Alcotest.(check bool) "rejected" false (Report.clean c);
  match c.Report.counterexample with
  | None -> Alcotest.fail "no counterexample path recorded"
  | Some ce ->
      Alcotest.(check bool) "premature-free" true
        (has_kind Engine.Premature_free ce);
      let v = find_kind Engine.Premature_free ce in
      Alcotest.(check bool) "counterexample trace present" true
        (v.Engine.trace <> [])

let test_broken_hp_rejected () =
  let c = CH.check Report.List in
  Alcotest.(check bool) "rejected" false (Report.clean c);
  match c.Report.counterexample with
  | None -> Alcotest.fail "no counterexample path recorded"
  | Some ce ->
      Alcotest.(check bool) "skipped-validation" true
        (has_kind Engine.Skipped_validation ce);
      (* the bug only surfaces when a validation is forced to fail *)
      Alcotest.(check bool) "needs an adversarial decision" true
        (ce.Report.deny <> []);
      let v = find_kind Engine.Skipped_validation ce in
      Alcotest.(check bool) "counterexample trace present" true
        (v.Engine.trace <> [])

(* The raw-API BST under a strict hazard configuration: unprotected
   traversal and witness-less retire, both on the all-grant path. *)
let test_mutant_bst_rejected () =
  let group = Runtime.Group.create ~seed:7 1 in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create ~params:Cell.params group heap in
  let rm = RM_hp.create env in
  let config = { Engine.discipline = RM_hp.discipline; strict = true } in
  let eng = Engine.create ~config ~nprocs:1 () in
  let detach = Engine.attach eng env in
  let ctx = Runtime.Group.ctx group 0 in
  let t = MB.create rm ~capacity:64 in
  ignore (MB.insert t ctx ~key:5);
  ignore (MB.insert t ctx ~key:3);
  ignore (MB.insert t ctx ~key:8);
  ignore (MB.contains t ctx 3);
  ignore (MB.delete t ctx 8);
  detach ();
  Alcotest.(check bool) "retire-without-unlink" true
    (Engine.has eng Engine.Retire_without_unlink);
  Alcotest.(check bool) "unprotected-access" true
    (Engine.has eng Engine.Unprotected_access);
  let v =
    List.find
      (fun v -> v.Engine.kind = Engine.Retire_without_unlink)
      (Engine.violations eng)
  in
  Alcotest.(check bool) "counterexample trace present" true
    (v.Engine.trace <> [])

(* The deleted sanitizer checks are subsumed by the witness API: a second
   retire of the same unlinked witness is an [Invalid_argument] at the API
   boundary, before any reclaimer state is touched. *)
let test_typed_double_retire_rejected () =
  let module RM = (val Reclaim.Registry.rm "ebr") in
  let module T = RM.Typed in
  let group = Runtime.Group.create ~seed:3 1 in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create group heap in
  let rm = RM.create env in
  let ctx = Runtime.Group.ctx group 0 in
  let arena =
    Memory.Heap.new_arena heap ~name:"double_retire" ~mut_fields:1
      ~const_fields:0 ~capacity:8
  in
  let raised =
    T.run_op rm ctx
      ~recover:(fun () -> None)
      (fun s ->
        T.leave rm ctx s;
        let f = T.alloc rm ctx arena in
        T.init rm ctx arena f 0 0;
        let p = T.publish_locked rm ctx s f in
        let w = T.unlink_locked rm ctx s p in
        T.retire rm ctx w;
        let r =
          try
            T.retire rm ctx w;
            false
          with Invalid_argument _ -> true
        in
        T.enter rm ctx s;
        r)
  in
  Alcotest.(check bool) "second retire rejected" true raised

(* The scheme registry is the one list every matrix and campaign builds
   from: its order is the matrix's column order, each entry's pairing is
   the one the benchmark runs, and each reclaimer's declared checker
   discipline is what both checkers replay. *)
let registry_names =
  [
    "none";
    "ebr";
    "qsbr";
    "debra";
    "debra+";
    "hp";
    "rc";
    "threadscan";
    "stacktrack";
    "vbr";
    "hyaline";
  ]

let test_registry_names () =
  let names = Reclaim.Registry.names in
  Alcotest.(check (list string)) "names, in order" registry_names names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      Alcotest.(check string)
        (n ^ ": found by name") n
        (Reclaim.Registry.name (Reclaim.Registry.find n)))
    names;
  Alcotest.check_raises "unknown name rejected"
    (Invalid_argument
       (Printf.sprintf "Registry.find: unknown scheme %S (expected %s)" "nope"
          (String.concat "|" names)))
    (fun () -> ignore (Reclaim.Registry.find "nope"))

let test_registry_disciplines () =
  let open Memory.Smr_discipline in
  let expected =
    [
      ("none", (Epoch, Skip, Interval, false));
      ("ebr", (Epoch, Grace_session, Interval, true));
      ("qsbr", (Epoch, Grace_qpoint, Point, true));
      ("debra", (Epoch, Grace_session, Interval, true));
      ("debra+", (Epoch, Grace_session, Interval, true));
      ("hp", (Hazard, Hazard_scan, Interval, true));
      ("rc", (Hazard, Hazard_scan, Interval, true));
      ("threadscan", (Epoch, Hazard_scan, Interval, true));
      ("stacktrack", (Lenient, Skip, Interval, true));
      ("vbr", (Lenient, Skip, Interval, true));
      ("hyaline", (Epoch, Grace_session, Interval, true));
    ]
  in
  Alcotest.(check (list string))
    "table covers the registry" registry_names (List.map fst expected);
  List.iter
    (fun (e : Reclaim.Registry.entry) ->
      let (module RM : Reclaim.Intf.RECORD_MANAGER) = e.rm in
      let d = RM.discipline in
      let declared = (d.access, d.free, d.quiescence, d.track_limbo) in
      if declared <> List.assoc RM.name expected then
        Alcotest.failf "%s: declared discipline differs" RM.name)
    Reclaim.Registry.all

(* The canonical pairing is the one the benchmark's RM modules alias, and
   a rebuilt pairing changes the allocator/pool only: the scheme, its
   name and its discipline are the entry's. *)
let test_registry_pairings () =
  let canonical =
    [
      ("none", "direct,bump");
      ("ebr", "pool,bump");
      ("qsbr", "pool,bump");
      ("debra", "pool,bump");
      ("debra+", "pool,bump");
      ("hp", "pool,bump");
      ("rc", "pool,bump");
      ("threadscan", "pool,bump");
      ("stacktrack", "direct,recycle");
      ("vbr", "direct,recycle");
      ("hyaline", "pool,bump");
    ]
  in
  Alcotest.(check (list string))
    "table covers the registry" registry_names (List.map fst canonical);
  List.iter
    (fun (e : Reclaim.Registry.entry) ->
      let (module RM : Reclaim.Intf.RECORD_MANAGER) = e.rm in
      let pool = List.hd (String.split_on_char ',' (List.assoc RM.name canonical)) in
      let check_rm label expected (module R : Reclaim.Intf.RECORD_MANAGER) =
        Alcotest.(check string) (RM.name ^ " " ^ label ^ " name") RM.name R.name;
        Alcotest.(check string)
          (RM.name ^ " " ^ label ^ " pairing")
          (Printf.sprintf "%s(%s)" RM.name expected)
          R.scheme_name;
        if R.discipline <> RM.discipline then
          Alcotest.failf "%s %s: discipline differs from the entry's" RM.name
            label
      in
      check_rm "canonical" (List.assoc RM.name canonical) e.rm;
      check_rm "exp1" "direct,bump" (Reclaim.Registry.rebuild Exp1 e);
      check_rm "exp3" (pool ^ ",malloc") (Reclaim.Registry.rebuild Exp3 e))
    Reclaim.Registry.all

let test_registry_matrix_order () =
  let names = Reclaim.Registry.names in
  Alcotest.(check (list string)) "lincheck matrix order" names
    Workload.Lin_harness.scheme_names;
  Alcotest.(check (list string)) "protocheck matrix order" names
    (List.map
       (fun c -> c.Report.scheme)
       (Matrix.check_structure Report.Queue))

(* Every runner table is built from registry names, each scheme at most
   once, and [find_runner] resolves each of its schemes by that name.
   Column order is the table's own (the skip list keeps the paper's). *)
let test_registry_runner_tables () =
  let names = Reclaim.Registry.names in
  List.iter
    (fun ((ds, variant), runners) ->
      let rnames = List.map (fun r -> r.Workload.Schemes.rname) runners in
      List.iter
        (fun n ->
          if not (List.mem n names) then
            Alcotest.failf "%s/%s: runner %s is not a registry scheme" ds
              variant n)
        rnames;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s schemes distinct" ds variant)
        (List.length rnames)
        (List.length (List.sort_uniq compare rnames));
      List.iter
        (fun scheme ->
          match Workload.Schemes.find_runner ~ds ~variant ~scheme with
          | Some r ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s finds %s" ds variant scheme)
                scheme r.Workload.Schemes.rname
          | None -> Alcotest.failf "%s/%s: %s not found" ds variant scheme)
        rnames;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s rejects an unknown scheme" ds variant)
        true
        (Workload.Schemes.find_runner ~ds ~variant ~scheme:"nope" = None))
    Workload.Schemes.by_name

let () =
  Alcotest.run "protocheck"
    [
      ( "matrix",
        [
          Alcotest.test_case "all 44 cells clean" `Slow test_clean_matrix;
          Alcotest.test_case "registry: names unique and in order" `Quick
            test_registry_names;
          Alcotest.test_case "registry: declared disciplines" `Quick
            test_registry_disciplines;
          Alcotest.test_case "registry: allocator/pool pairings" `Quick
            test_registry_pairings;
          Alcotest.test_case "registry: matrix column order" `Quick
            test_registry_matrix_order;
          Alcotest.test_case "registry: runner tables by name" `Quick
            test_registry_runner_tables;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "broken ebr: premature free" `Quick
            test_broken_ebr_rejected;
          Alcotest.test_case "broken hp: skipped validation" `Quick
            test_broken_hp_rejected;
          Alcotest.test_case "raw-api bst: unprotected deref + raw retire"
            `Quick test_mutant_bst_rejected;
        ] );
      ( "typestate",
        [
          Alcotest.test_case "double retire is unrepresentable" `Quick
            test_typed_double_retire_rejected;
        ] );
    ]
