(** Harris-Michael lock-free linked-list set, written once against the
    Record Manager abstraction.

    A node's [next] field carries the mark bit: a marked next pointer means
    the node is logically deleted.  The process whose CAS physically unlinks
    a node retires it with the Record Manager, which decides when it can be
    reused.

    Hazard-pointer discipline follows Michael's original algorithm: a newly
    reached node is [protect]ed and then verified by re-reading the
    predecessor's next pointer — sound here because nodes are retired only
    after being unlinked, and the traversal restarts from the head on any
    inconsistency.  Epoch-style reclaimers make [protect] free and let
    traversals walk retired nodes.

    Operations follow the paper's Fig. 5 shape: allocation in a quiescent
    preamble, the body between [leave_qstate]/[enter_qstate].  Under DEBRA+
    a neutralized operation simply restarts: every update is a single
    published CAS, so there is no partial state to repair and no descriptor
    to help.

    This structure is written entirely against the typestate surface
    ({!Reclaim.Intf.RECORD_MANAGER.Typed}): every dereference goes through
    a guard witness, the candidate node of an insert stays a [fresh]
    witness until its publishing CAS spends it, and retire only accepts
    the [unlinked] witness minted by the successful unlink CAS.  The
    wrappers delegate 1:1 to the untyped calls, so the instrumented access
    sequence — and therefore every pinned golden schedule — is unchanged. *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = RM.Typed

  let f_next = 0 (* mutable: successor pointer; mark bit = logically deleted *)
  let c_key = 0
  let c_value = 1

  type t = {
    rm : RM.t;
    arena : Memory.Arena.t;
    head : Memory.Ptr.t;  (* sentinel, never retired *)
  }

  (* [create_in] builds a list whose nodes live in an existing arena, so
     many lists (e.g. the buckets of a hash set) can share one arena and
     one Record Manager. *)
  let create_in arena rm =
    let env = RM.env rm in
    let ctx = Runtime.Group.ctx env.Reclaim.Intf.Env.group 0 in
    let head = T.alloc rm ctx arena in
    T.init_const rm ctx arena head c_key min_int;
    T.init rm ctx arena head f_next Memory.Ptr.null;
    { rm; arena; head = T.sentinel rm ctx head }

  let node_arena rm ~capacity =
    let env = RM.env rm in
    Memory.Heap.new_arena env.Reclaim.Intf.Env.heap ~name:"hm_list.node"
      ~mut_fields:1 ~const_fields:2 ~capacity:(capacity + 1)

  let create rm ~capacity = create_in (node_arena rm ~capacity) rm

  let arena t = t.arena
  let key_of t ctx g = T.get_const t.rm ctx t.arena g c_key
  let next_of t ctx g = T.read t.rm ctx t.arena g f_next

  exception Restart

  (* [find t ctx s key] returns (prev, cur) with prev.next = cur, cur a
     guard on the first node of key >= [key] (or [None] at the end of the
     list), prev guarded (the permanent head needs no announcement).
     Marked nodes met along the way are unlinked and retired — the unlink
     CAS mints the witness its retire spends. *)
  let find t ctx s key =
    let rec from_head () =
      let head = T.root_guard t.rm s t.head in
      match scan head (next_of t ctx head) with
      | position -> position
      | exception Restart ->
          T.release_all t.rm ctx;
          from_head ()
    and scan prev cur =
      if Memory.Ptr.is_null cur then (prev, None)
      else begin
        let cur = Memory.Ptr.unmark cur in
        let verify =
          if RM.protect_ignores_verify then T.unverified
          else fun () -> next_of t ctx prev = cur
        in
        match T.acquire t.rm ctx s cur ~verify with
        | exception Reclaim.Intf.Acquire_denied -> raise Restart
        | curg -> (
            let next = next_of t ctx curg in
            if Memory.Ptr.is_marked next then begin
              (* cur is logically deleted: unlink it. *)
              let next = Memory.Ptr.unmark next in
              match
                T.cas_unlink t.rm ctx t.arena prev f_next ~expect:cur next
                  ~unlinks:[ cur ]
              with
              | Some [ w ] ->
                  T.retire t.rm ctx w;
                  T.release t.rm ctx curg;
                  scan prev next
              | Some _ -> assert false
              | None -> raise Restart
            end
            else if key_of t ctx curg >= key then (prev, Some curg)
            else begin
              if T.ptr prev <> t.head then T.release t.rm ctx prev;
              scan curg next
            end)
      end
    in
    from_head ()

  (* Preamble/body/postamble shell shared by all operations. *)
  let with_op t ctx body =
    let result =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          (* Single-CAS updates leave nothing to help: clean up and restart. *)
          RM.runprotect_all t.rm ctx;
          T.release_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let r = body s in
          T.enter t.rm ctx s;
          r)
    in
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1;
    result

  let contains t ctx key =
    with_op t ctx (fun s ->
        match find t ctx s key with
        | _, Some cur -> key_of t ctx cur = key
        | _, None -> false)

  let get t ctx key =
    with_op t ctx (fun s ->
        match find t ctx s key with
        | _, Some cur when key_of t ctx cur = key ->
            Some (T.get_const t.rm ctx t.arena cur c_value)
        | _ -> None)

  let insert t ctx ~key ~value =
    (* Quiescent preamble: allocate and initialize the candidate node; its
       fresh witness survives restarts (only a successful publishing CAS
       spends it) and is abandoned if the key turns out present. *)
    let node = T.alloc t.rm ctx t.arena in
    T.init_const t.rm ctx t.arena node c_key key;
    T.init_const t.rm ctx t.arena node c_value value;
    let inserted =
      with_op t ctx (fun s ->
          let rec attempt () =
            let prev, cur = find t ctx s key in
            match cur with
            | Some curg when key_of t ctx curg = key -> false
            | _ ->
                let curp =
                  match cur with
                  | Some curg -> T.ptr curg
                  | None -> Memory.Ptr.null
                in
                T.init t.rm ctx t.arena node f_next curp;
                if
                  T.publish_cas t.rm ctx t.arena prev f_next ~expect:curp node
                then true
                else begin
                  T.release_all t.rm ctx;
                  attempt ()
                end
          in
          attempt ())
    in
    if not inserted then T.abandon t.rm ctx node;
    inserted

  let delete t ctx key =
    (* The mark CAS is the linearization point, but the operation keeps
       accessing shared memory afterwards (the unlink attempt), so a
       neutralization there must not restart the operation: [linearized]
       plays the role of Fig. 5's descriptor check in recovery.  It is set
       with no instrumented access (hence no neutralization point) between
       the successful CAS and the assignment. *)
    let linearized = ref false in
    let result =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.runprotect_all t.rm ctx;
          T.release_all t.rm ctx;
          if !linearized then Some true else None)
        (fun s ->
          T.leave t.rm ctx s;
          let rec attempt () =
            match find t ctx s key with
            | _, None -> false
            | prev, Some curg ->
                if key_of t ctx curg <> key then false
                else begin
                  let next = next_of t ctx curg in
                  if Memory.Ptr.is_marked next then begin
                    T.release_all t.rm ctx;
                    attempt ()
                  end
                  else if
                    T.cas t.rm ctx t.arena curg f_next ~expect:next
                      (Memory.Ptr.mark next)
                  then begin
                    linearized := true;
                    (* Logically deleted; unlink now or let a later find
                       clean up. *)
                    (match
                       T.cas_unlink t.rm ctx t.arena prev f_next
                         ~expect:(T.ptr curg) next ~unlinks:[ T.ptr curg ]
                     with
                    | Some [ w ] -> T.retire t.rm ctx w
                    | Some _ -> assert false
                    | None ->
                        T.release_all t.rm ctx;
                        ignore (find t ctx s key));
                    true
                  end
                  else begin
                    T.release_all t.rm ctx;
                    attempt ()
                  end
                end
          in
          let r = attempt () in
          T.enter t.rm ctx s;
          r)
    in
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1;
    result

  (* [remove] is [delete] returning the deleted node's value: the unique
     process whose mark CAS linearizes the delete reads [c_value] (const,
     so the read commutes with the CAS) and hands it back.  Kept as a
     separate spelling so [delete]'s instrumented access sequence — pinned
     by golden schedules — is untouched. *)
  let remove t ctx key =
    let linearized = ref None in
    let result =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.runprotect_all t.rm ctx;
          T.release_all t.rm ctx;
          match !linearized with Some v -> Some (Some v) | None -> None)
        (fun s ->
          T.leave t.rm ctx s;
          let rec attempt () =
            match find t ctx s key with
            | _, None -> None
            | prev, Some curg ->
                if key_of t ctx curg <> key then None
                else begin
                  let next = next_of t ctx curg in
                  if Memory.Ptr.is_marked next then begin
                    T.release_all t.rm ctx;
                    attempt ()
                  end
                  else begin
                    let value = T.get_const t.rm ctx t.arena curg c_value in
                    if
                      T.cas t.rm ctx t.arena curg f_next ~expect:next
                        (Memory.Ptr.mark next)
                    then begin
                      linearized := Some value;
                      (match
                         T.cas_unlink t.rm ctx t.arena prev f_next
                           ~expect:(T.ptr curg) next ~unlinks:[ T.ptr curg ]
                       with
                      | Some [ w ] -> T.retire t.rm ctx w
                      | Some _ -> assert false
                      | None ->
                          T.release_all t.rm ctx;
                          ignore (find t ctx s key));
                      Some value
                    end
                    else begin
                      T.release_all t.rm ctx;
                      attempt ()
                    end
                  end
                end
          in
          let r = attempt () in
          T.enter t.rm ctx s;
          r)
    in
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1;
    result

  (* [fold_entry t ctx key ~f] looks the key up and, if present, runs [f]
     inside the operation's still-open session while the node is guarded:
     [f s ~value ~live] may acquire further protections through [s] (e.g.
     on a pointer stored in [value]) using [live] — true while the node is
     not yet logically deleted — as the acquire-time verification.  A
     hazard-style scheme is sound here because the value's referent (if it
     is a record) is retired only {e after} this node's delete linearizes:
     an announcement validated by [live] therefore happens-before that
     retire's scan.  Epoch schemes need no validation — the open session
     alone keeps any record seen unmarked in-window unreclaimed. *)
  let fold_entry t ctx key ~f =
    with_op t ctx (fun s ->
        match find t ctx s key with
        | _, Some curg when key_of t ctx curg = key ->
            let value = T.get_const t.rm ctx t.arena curg c_value in
            let live () =
              not (Memory.Ptr.is_marked (next_of t ctx curg))
            in
            Some (f s ~value ~live)
        | _ -> None)

  (* Uninstrumented helpers for tests and invariant checks. *)

  let to_list t =
    let rec go acc p =
      if Memory.Ptr.is_null p then List.rev acc
      else
        let p = Memory.Ptr.unmark p in
        let key = Memory.Arena.peek_const t.arena p c_key in
        let next = Memory.Arena.peek t.arena p f_next in
        let acc = if Memory.Ptr.is_marked next then acc else key :: acc in
        go acc next
    in
    go [] (Memory.Arena.peek t.arena t.head f_next)

  let size t = List.length (to_list t)

  exception Broken of string

  let check_invariants t =
    let rec go prev_key p n =
      if n > Memory.Arena.capacity t.arena then
        raise (Broken "cycle or overlong chain");
      if not (Memory.Ptr.is_null p) then begin
        let p = Memory.Ptr.unmark p in
        if not (Memory.Arena.is_valid t.arena p) then
          raise (Broken "reachable node is freed");
        let key = Memory.Arena.peek_const t.arena p c_key in
        let next = Memory.Arena.peek t.arena p f_next in
        if not (Memory.Ptr.is_marked next) && key <= prev_key then
          raise (Broken "keys not strictly increasing");
        go (max key prev_key) next (n + 1)
      end
    in
    go min_int (Memory.Arena.peek t.arena t.head f_next) 0
end
