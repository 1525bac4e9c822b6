(* Property and unit tests for the memory substrate: pointer packing, the
   arena lifecycle (Fig. 1 of the paper), generation-based use-after-free
   detection, the virtual address space, and the instrumented access path
   of [Runtime.Ctx]. *)

let ctx () = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:1

(* Pointer packing roundtrips. *)
let prop_ptr_roundtrip =
  QCheck.Test.make ~name:"ptr pack/unpack roundtrip" ~count:500
    QCheck.(
      quad (int_bound (Memory.Ptr.max_arenas - 1)) (int_bound 1_000_000)
        (int_bound Memory.Ptr.gen_mask) bool)
    (fun (arena, slot, gen, marked) ->
      let p = Memory.Ptr.make ~arena ~slot ~gen in
      let p = if marked then Memory.Ptr.mark p else p in
      Memory.Ptr.arena_id p = arena
      && Memory.Ptr.slot p = slot
      && Memory.Ptr.gen p = gen
      && Memory.Ptr.is_marked p = marked
      && (not (Memory.Ptr.is_null p))
      && Memory.Ptr.unmark (Memory.Ptr.mark p) = Memory.Ptr.unmark p)

let prop_ptr_distinct =
  QCheck.Test.make ~name:"distinct (slot,gen) make distinct pointers" ~count:200
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((s1, g1), (s2, g2)) ->
      let p1 = Memory.Ptr.make ~arena:0 ~slot:s1 ~gen:g1 in
      let p2 = Memory.Ptr.make ~arena:0 ~slot:s2 ~gen:g2 in
      (s1 = s2 && g1 = g2) = (p1 = p2))

let test_null () =
  Alcotest.(check bool) "null is null" true (Memory.Ptr.is_null Memory.Ptr.null);
  Alcotest.(check bool) "marked null is null" true
    (Memory.Ptr.is_null (Memory.Ptr.mark Memory.Ptr.null));
  Alcotest.(check bool) "real ptr is not null" false
    (Memory.Ptr.is_null (Memory.Ptr.make ~arena:0 ~slot:0 ~gen:0))

(* Arena lifecycle *)

let mk_arena () =
  Memory.Arena.create ~heap_id:0 ~name:"t" ~mut_fields:2 ~const_fields:1
    ~capacity:64 ()

let test_lifecycle () =
  let c = ctx () in
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 42;
  Memory.Arena.set_const c a p 0 9;
  Alcotest.(check int) "read" 42 (Memory.Arena.read c a p 0);
  Alcotest.(check int) "const" 9 (Memory.Arena.get_const c a p 0);
  Alcotest.(check bool) "cas ok" true
    (Memory.Arena.cas c a p 0 ~expect:42 43);
  Alcotest.(check bool) "cas fail" false
    (Memory.Arena.cas c a p 0 ~expect:42 44);
  Alcotest.(check int) "live" 1 (Memory.Arena.live_records a);
  Memory.Arena.release c a p ~recycle:true;
  Alcotest.(check int) "live after free" 0 (Memory.Arena.live_records a);
  (* Any access through the stale pointer must raise. *)
  Alcotest.check_raises "read after free"
    (Memory.Arena.Use_after_free
       (Printf.sprintf "t: ptr %s (slot state=%d gen=%d)"
          (Memory.Ptr.to_string p) 0 1))
    (fun () -> ignore (Memory.Arena.read c a p 0));
  (* Double free must raise. *)
  (match Memory.Arena.release c a p ~recycle:true with
  | () -> Alcotest.fail "double free not detected"
  | exception Memory.Arena.Double_free _ -> ());
  (* Recycling hands out the same slot with a new generation. *)
  match Memory.Arena.claim_recycled c a with
  | None -> Alcotest.fail "free list empty"
  | Some p' ->
      Alcotest.(check int) "same slot" (Memory.Ptr.slot p) (Memory.Ptr.slot p');
      Alcotest.(check bool) "new generation" true
        (Memory.Ptr.gen p' <> Memory.Ptr.gen p)

let test_stale_cas_fails () =
  (* The ABA guard: a CAS through a stale pointer raises rather than
     corrupting the reused record. *)
  let c = ctx () in
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 7;
  Memory.Arena.release c a p ~recycle:true;
  let p' = Option.get (Memory.Arena.claim_recycled c a) in
  Memory.Arena.write c a p' 0 7;
  (match Memory.Arena.cas c a p 0 ~expect:7 8 with
  | _ -> Alcotest.fail "stale CAS not detected"
  | exception Memory.Arena.Use_after_free _ -> ());
  Alcotest.(check int) "value untouched" 7 (Memory.Arena.read c a p' 0)

let test_capacity () =
  let c = ctx () in
  let a =
    Memory.Arena.create ~heap_id:0 ~name:"small" ~mut_fields:1 ~const_fields:0
      ~capacity:2 ()
  in
  ignore (Memory.Arena.claim_fresh c a);
  ignore (Memory.Arena.claim_fresh c a);
  match Memory.Arena.claim_fresh c a with
  | _ -> Alcotest.fail "expected Arena_full"
  | exception Memory.Arena.Arena_full _ -> ()

(* The row layout: each record is one row of the arena's flat array, its
   header, mutable and constant words side by side.  Two domains
   CAS-increment every mutable word of three adjacent records, so each
   word is contended and sits next to its neighbours' words; a lost update
   or a stray store into a header or constant word shows in the totals. *)
let test_adjacent_rows_two_domains () =
  let a = mk_arena () in
  let c0 = ctx () in
  let ps = Array.init 3 (fun _ -> Memory.Arena.claim_fresh c0 a) in
  Array.iteri (fun i p -> Memory.Arena.set_const c0 a p 0 (100 + i)) ps;
  let rounds = 50_000 in
  let ready = Atomic.make 0 in
  let worker pid () =
    let c = Runtime.Ctx.make ~pid ~nprocs:2 ~seed:pid in
    let rec incr p f =
      let v = Memory.Arena.read c a p f in
      if not (Memory.Arena.cas c a p f ~expect:v (v + 1)) then incr p f
    in
    (* Start together, so the two domains' increments overlap. *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to rounds do
      Array.iter (fun p -> incr p 0; incr p 1) ps
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  Array.iteri
    (fun i p ->
      Alcotest.(check (list int))
        (Printf.sprintf "record %d: both mutable words" i)
        [ 2 * rounds; 2 * rounds ]
        [ Memory.Arena.peek a p 0; Memory.Arena.peek a p 1 ];
      Alcotest.(check int)
        (Printf.sprintf "record %d: constant word" i)
        (100 + i) (Memory.Arena.peek_const a p 0);
      Alcotest.(check bool)
        (Printf.sprintf "record %d: header still valid" i)
        true (Memory.Arena.is_valid a p))
    ps;
  (* The never-claimed row after them is untouched as well. *)
  let q = Memory.Arena.claim_fresh c0 a in
  Alcotest.(check (list int)) "next row: generation 0, zero words" [ 0; 0; 0; 0 ]
    [
      Memory.Ptr.gen q;
      Memory.Arena.read c0 a q 0;
      Memory.Arena.read c0 a q 1;
      Memory.Arena.get_const c0 a q 0;
    ]

(* Every instrumented accessor checks the header's generation, and a
   recycled slot validates under its new generation only. *)
let test_freed_pointer_accessors () =
  let c = ctx () in
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 1;
  Memory.Arena.release c a p ~recycle:true;
  let uaf name f =
    match f () with
    | _ -> Alcotest.failf "%s through a freed pointer not detected" name
    | exception Memory.Arena.Use_after_free _ -> ()
  in
  uaf "read" (fun () -> ignore (Memory.Arena.read c a p 0));
  uaf "write" (fun () -> Memory.Arena.write c a p 0 2);
  uaf "cas" (fun () -> ignore (Memory.Arena.cas c a p 0 ~expect:1 2));
  uaf "get_const" (fun () -> ignore (Memory.Arena.get_const c a p 0));
  uaf "set_const" (fun () -> Memory.Arena.set_const c a p 0 2);
  let p' = Option.get (Memory.Arena.claim_recycled c a) in
  Alcotest.(check int) "same slot" (Memory.Ptr.slot p) (Memory.Ptr.slot p');
  Alcotest.(check (pair bool bool)) "new generation valid, old one not"
    (true, false)
    (Memory.Arena.is_valid a p', Memory.Arena.is_valid a p);
  Memory.Arena.write c a p' 0 5;
  Memory.Arena.set_const c a p' 0 6;
  Alcotest.(check (pair int int)) "recycled slot reads" (5, 6)
    (Memory.Arena.read c a p' 0, Memory.Arena.get_const c a p' 0);
  uaf "read after recycling" (fun () -> ignore (Memory.Arena.read c a p 0));
  Memory.Arena.release c a p' ~recycle:false;
  match Memory.Arena.release c a p' ~recycle:false with
  | () -> Alcotest.fail "double free not detected"
  | exception Memory.Arena.Double_free _ -> ()

(* The atomic accessors skip OCaml's bounds check, so a pointer past the
   last row must be refused before any memory is touched. *)
let test_peek_poke_bounds () =
  let c = ctx () in
  let a =
    Memory.Arena.create ~heap_id:0 ~name:"b" ~mut_fields:1 ~const_fields:1
      ~capacity:2 ()
  in
  ignore (Memory.Arena.claim_fresh c a);
  let last = Memory.Arena.claim_fresh c a in
  Memory.Arena.poke a last 0 7;
  Alcotest.(check int) "last row" 7 (Memory.Arena.peek a last 0);
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s beyond capacity not refused" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun p ->
      refused "peek" (fun () -> ignore (Memory.Arena.peek a p 0));
      refused "poke" (fun () -> Memory.Arena.poke a p 0 1);
      refused "peek_const" (fun () -> ignore (Memory.Arena.peek_const a p 0)))
    (Memory.Ptr.null
    :: List.map
         (fun slot -> Memory.Ptr.make ~arena:0 ~slot ~gen:0)
         [ 2; 3; 1_000_000 ]);
  Alcotest.(check int) "last row untouched" 7 (Memory.Arena.peek a last 0)

(* Random alloc/free traffic agrees with a reference model. *)
let prop_arena_model =
  QCheck.Test.make ~name:"arena agrees with reference model" ~count:100
    QCheck.(list (pair bool (int_bound 100)))
    (fun script ->
      let c = ctx () in
      let a =
        Memory.Arena.create ~heap_id:1 ~name:"m" ~mut_fields:1 ~const_fields:0
          ~capacity:512 ()
      in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (alloc, v) ->
          if alloc || Hashtbl.length live = 0 then begin
            let p =
              match Memory.Arena.claim_recycled c a with
              | Some p -> p
              | None -> Memory.Arena.claim_fresh c a
            in
            if Hashtbl.mem live p then ok := false;
            Memory.Arena.write c a p 0 v;
            Hashtbl.replace live p v
          end
          else begin
            let n = Random.int (Hashtbl.length live) in
            let p, v' =
              List.nth (Hashtbl.fold (fun k v acc -> (k, v) :: acc) live []) n
            in
            if Memory.Arena.read c a p 0 <> v' then ok := false;
            Memory.Arena.release c a p ~recycle:true;
            Hashtbl.remove live p
          end)
        script;
      !ok
      && Memory.Arena.live_records a = Hashtbl.length live
      && Hashtbl.fold
           (fun p v acc -> acc && Memory.Arena.read c a p 0 = v)
           live true)

(* Heap dispatch *)
let test_heap_dispatch () =
  let c = ctx () in
  let heap = Memory.Heap.create () in
  let a0 = Memory.Heap.new_arena heap ~name:"a0" ~mut_fields:1 ~const_fields:0 ~capacity:8 in
  let a1 = Memory.Heap.new_arena heap ~name:"a1" ~mut_fields:1 ~const_fields:0 ~capacity:8 in
  let p0 = Memory.Arena.claim_fresh c a0 in
  let p1 = Memory.Arena.claim_fresh c a1 in
  Alcotest.(check string) "dispatch a0" "a0"
    (Memory.Arena.name (Memory.Heap.arena_of heap p0));
  Alcotest.(check string) "dispatch a1" "a1"
    (Memory.Arena.name (Memory.Heap.arena_of heap p1));
  Memory.Heap.release heap c p0 ~recycle:false;
  Alcotest.(check int) "live" 1 (Memory.Heap.live_records heap)

(* Address space *)
let test_addr () =
  let base = Runtime.Addr.reserve_words 20 in
  Alcotest.(check int) "same line"
    (Runtime.Addr.line_of ~base_line:base 0)
    (Runtime.Addr.line_of ~base_line:base 7);
  Alcotest.(check bool) "next line" true
    (Runtime.Addr.line_of ~base_line:base 8
    > Runtime.Addr.line_of ~base_line:base 7)

(* The instrumented access path.  With no hook installed, [Ctx.access]
   skips the hook call; the counters and the signal poll must not notice. *)
let test_access_unhooked () =
  let c = ctx () in
  let v = Runtime.Svar.make 0 in
  ignore (Runtime.Svar.get c v);
  Runtime.Svar.set c v 1;
  ignore (Runtime.Svar.cas c v ~expect:1 2);
  ignore (Runtime.Svar.faa c v 1);
  Runtime.Ctx.fence c;
  Runtime.Ctx.work c 5;
  Runtime.Ctx.work c 5000;
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 7;
  ignore (Memory.Arena.read c a p 0);
  let s = c.Runtime.Ctx.stats in
  Alcotest.(check (list int))
    "reads, writes, cass, fences" [ 2; 2; 2; 1 ]
    [ s.reads; s.writes; s.cass; s.fences ];
  (* [claim_fresh] charges 2 cycles of work of its own. *)
  Alcotest.(check int) "local work" 5007 s.local_work;
  let handled = ref 0 in
  c.handler <- (fun _ -> incr handled);
  Atomic.set c.sig_pending true;
  Alcotest.(check int) "not before the next access" 0 !handled;
  ignore (Runtime.Svar.get c v);
  Alcotest.(check int) "handler ran at the access" 1 !handled;
  Alcotest.(check bool) "pending cleared" false (Atomic.get c.sig_pending);
  ignore (Memory.Arena.read c a p 0);
  Alcotest.(check int) "once" 1 !handled

let test_add_hook () =
  let c = ctx () in
  let default = c.Runtime.Ctx.hook in
  let v = Runtime.Svar.make 0 in
  let log = ref [] in
  let hook name _ ~line _ = log := (name, line) :: !log in
  let remove_a = Runtime.Ctx.add_hook c (hook "a") in
  let remove_b = Runtime.Ctx.add_hook c (hook "b") in
  ignore (Runtime.Svar.get c v);
  Runtime.Svar.set c v 1;
  let l = Runtime.Svar.line v in
  Alcotest.(check (list (pair string int)))
    "every access, newest hook first"
    [ ("b", l); ("a", l); ("b", l); ("a", l) ]
    (List.rev !log);
  (* A pending signal is delivered before the hook sees the access. *)
  log := [];
  c.handler <- (fun _ -> log := ("handler", 0) :: !log);
  Atomic.set c.sig_pending true;
  ignore (Runtime.Svar.get c v);
  Alcotest.(check (list (pair string int)))
    "handler, then hooks" [ ("handler", 0); ("b", l); ("a", l) ]
    (List.rev !log);
  log := [];
  remove_b ();
  ignore (Runtime.Svar.get c v);
  Alcotest.(check (list (pair string int)))
    "removed hook no longer called" [ ("a", l) ] (List.rev !log);
  log := [];
  remove_a ();
  ignore (Runtime.Svar.get c v);
  Alcotest.(check (list (pair string int))) "no hook left" [] !log;
  Alcotest.(check bool) "default restored" true (c.hook == default);
  (* The simulator's save/restore of the field directly. *)
  let saved = c.hook in
  c.hook <- (fun c' ~line k -> hook "sim" c' ~line k; saved c' ~line k);
  ignore (Runtime.Svar.get c v);
  c.hook <- saved;
  ignore (Runtime.Svar.get c v);
  Alcotest.(check (list (pair string int)))
    "direct save/restore" [ ("sim", l) ] !log;
  Alcotest.(check int) "reads counted throughout" 6 c.stats.reads

let test_masked_delivery () =
  let c = ctx () in
  let v = Runtime.Svar.make 0 in
  let handled = ref 0 in
  c.Runtime.Ctx.handler <- (fun _ -> incr handled);
  Runtime.Ctx.mask c;
  Runtime.Ctx.mask c;
  Atomic.set c.sig_pending true;
  ignore (Runtime.Svar.get c v);
  Runtime.Ctx.unmask c;
  ignore (Runtime.Svar.get c v);
  Alcotest.(check int) "deferred while masked" 0 !handled;
  Alcotest.(check bool) "still pending" true (Atomic.get c.sig_pending);
  Runtime.Ctx.unmask c;
  Alcotest.(check int) "not at the unmask itself" 0 !handled;
  ignore (Runtime.Svar.get c v);
  Alcotest.(check int) "delivered after the outermost unmask" 1 !handled;
  Alcotest.(check int) "reads counted while masked" 3 c.stats.reads

let () =
  Alcotest.run "memory"
    [
      ( "ptr",
        [
          QCheck_alcotest.to_alcotest prop_ptr_roundtrip;
          QCheck_alcotest.to_alcotest prop_ptr_distinct;
          Alcotest.test_case "null" `Quick test_null;
        ] );
      ( "arena",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "stale CAS detected" `Quick test_stale_cas_fails;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "adjacent rows, two domains" `Quick
            test_adjacent_rows_two_domains;
          Alcotest.test_case "freed pointer, every accessor" `Quick
            test_freed_pointer_accessors;
          Alcotest.test_case "peek/poke beyond capacity" `Quick
            test_peek_poke_bounds;
          QCheck_alcotest.to_alcotest prop_arena_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "dispatch" `Quick test_heap_dispatch;
          Alcotest.test_case "addr lines" `Quick test_addr;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "unhooked access" `Quick test_access_unhooked;
          Alcotest.test_case "add_hook" `Quick test_add_hook;
          Alcotest.test_case "masked delivery" `Quick test_masked_delivery;
        ] );
    ]
