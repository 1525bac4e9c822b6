(* Allocation on the instrumented hot path.  With no event sink, protocol
   monitor or oracle attached, the instrumentation layers (Smr_event
   emission in the arena and reclaimers, the typed Record Manager's
   protocol hooks, the data structures' traversal guards, [Ctx.work]) must
   build nothing: an arena access or a typed acquire allocates 0 minor
   words, and a BST lookup allocates only what the structure itself needs.
   With a sink attached, every access must still be delivered, in order.

   Minor-word deltas are deterministic for a single domain, so these are
   exact checks that do not depend on timing. *)

module RM_none = Workload.Schemes.RM1_none
module RM_dplus = Workload.Schemes.RM2_debra_plus

(* Minor words allocated by [f ()], net of the measurement itself (each
   [Gc.minor_words] call boxes its float result). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  let w3 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. (w3 -. w2))

let n = 10_000

let setup () =
  let group = Runtime.Group.create ~seed:5 1 in
  let heap = Memory.Heap.create () in
  let arena =
    Memory.Heap.new_arena heap ~name:"alloc" ~mut_fields:2 ~const_fields:1
      ~capacity:16
  in
  let ctx = Runtime.Group.ctx group 0 in
  let p = Memory.Arena.claim_fresh ctx arena in
  (group, heap, arena, ctx, p)

let test_arena_accesses () =
  let _, _, arena, ctx, p = setup () in
  let words =
    minor_words (fun () ->
        for i = 1 to n do
          ignore (Memory.Arena.read ctx arena p 0);
          ignore (Memory.Arena.get_const ctx arena p 0);
          Memory.Arena.write ctx arena p 1 i;
          ignore (Memory.Arena.cas ctx arena p 1 ~expect:i (i + 1))
        done)
  in
  Alcotest.(check int) "words for 4 x 10^4 arena accesses" 0 words

let test_work () =
  let _, _, _, ctx, _ = setup () in
  let before = ctx.Runtime.Ctx.stats.Runtime.Ctx.local_work in
  let words =
    minor_words (fun () ->
        for i = 1 to n do
          Runtime.Ctx.work ctx (i land 255)
        done)
  in
  Alcotest.(check int) "words for 10^4 Ctx.work calls" 0 words;
  let charged = ctx.Runtime.Ctx.stats.Runtime.Ctx.local_work - before in
  let expect = ref 0 in
  for i = 1 to n do
    expect := !expect + (i land 255)
  done;
  Alcotest.(check int) "cycles charged" !expect charged

let test_typed_acquire () =
  let group, heap, arena, ctx, p = setup () in
  let env = Reclaim.Intf.Env.create group heap in
  let rm = RM_dplus.create env in
  let module T = RM_dplus.Typed in
  let words =
    T.run_op rm ctx
      ~recover:(fun () -> None)
      (fun s ->
        T.leave rm ctx s;
        let words =
          minor_words (fun () ->
              for _ = 1 to n do
                let g = T.acquire rm ctx s p ~verify:T.unverified in
                ignore (T.read rm ctx arena g 0)
              done)
        in
        T.enter rm ctx s;
        words)
  in
  Alcotest.(check int) "words for 10^4 debra+ Typed.acquire + read" 0 words

(* The per-lookup bound for an EFRB BST of [keys] keys (about 25 steps
   deep).  What remains is the operation's own and does not grow with the
   depth: the search result and the recovery and body closures of the
   operation shell (21 words under none, about 23 under debra+, whose
   epoch rotations allocate now and then).  Building every event before
   testing for a listener cost about 600 words per lookup. *)
let keys = 4096
let words_per_lookup_bound = 40

module Bst_lookup (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module B = Ds.Efrb_bst.Make (RM)

  let words_per_lookup () =
    let group = Runtime.Group.create ~seed:11 1 in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let rm = RM.create env in
    let t = B.create rm ~capacity:(4 * keys) in
    let ctx = Runtime.Group.ctx group 0 in
    let rng = Random.State.make [| 11 |] in
    for _ = 1 to keys do
      ignore (B.insert t ctx ~key:(1 + Random.State.int rng (2 * keys)) ~value:1)
    done;
    let lookups = 20_000 in
    let hits = ref 0 in
    let words =
      minor_words (fun () ->
          for i = 1 to lookups do
            if B.contains t ctx (1 + (i * 7919 mod (2 * keys))) then incr hits
          done)
    in
    Alcotest.(check bool) "lookups found keys" true (!hits > 0);
    float_of_int words /. float_of_int lookups
end

let check_lookup name words =
  Printf.printf "%s: %.2f words per BST lookup\n" name words;
  if words > float_of_int words_per_lookup_bound then
    Alcotest.failf "%s: %.1f words per BST lookup exceeds the bound of %d"
      name words words_per_lookup_bound

let test_bst_none () =
  let module L = Bst_lookup (RM_none) in
  check_lookup "none" (L.words_per_lookup ())

let test_bst_dplus () =
  let module L = Bst_lookup (RM_dplus) in
  check_lookup "debra+" (L.words_per_lookup ())

(* With a sink attached the guarded emission points still build and
   deliver every event: one [Access] per access, in program order, with
   the right pointer and kind. *)
let test_sink_sees_every_access () =
  let _, heap, arena, ctx, p = setup () in
  let seen = ref [] in
  let sub =
    Memory.Heap.add_sink heap (fun _ ev ->
        match ev with
        | Memory.Smr_event.Access (q, k) -> seen := (q, k) :: !seen
        | _ -> ())
  in
  let before = Runtime.Ctx.stats_total_accesses ctx.Runtime.Ctx.stats in
  let rounds = 100 in
  for i = 1 to rounds do
    ignore (Memory.Arena.read ctx arena p 0);
    ignore (Memory.Arena.get_const ctx arena p 0);
    Memory.Arena.write ctx arena p 1 i;
    ignore (Memory.Arena.cas ctx arena p 1 ~expect:i (i + 1))
  done;
  Memory.Heap.remove_sink heap sub;
  let accesses =
    Runtime.Ctx.stats_total_accesses ctx.Runtime.Ctx.stats - before
  in
  let seen = List.rev !seen in
  Alcotest.(check int) "one Access event per access" accesses
    (List.length seen);
  let expect =
    List.concat
      (List.init rounds (fun _ ->
           Memory.Smr_event.[ (p, Read); (p, Read); (p, Write); (p, Cas) ]))
  in
  Alcotest.(check bool) "events in access order" true (seen = expect)

let () =
  Alcotest.run "alloc"
    [
      ( "unobserved",
        [
          Alcotest.test_case "arena accesses allocate nothing" `Quick
            test_arena_accesses;
          Alcotest.test_case "Ctx.work allocates nothing" `Quick test_work;
          Alcotest.test_case "debra+ Typed.acquire allocates nothing" `Quick
            test_typed_acquire;
          Alcotest.test_case "bst lookup words bounded (none)" `Quick
            test_bst_none;
          Alcotest.test_case "bst lookup words bounded (debra+)" `Quick
            test_bst_dplus;
        ] );
      ( "observed",
        [
          Alcotest.test_case "sink sees every access" `Quick
            test_sink_sees_every_access;
        ] );
    ]
