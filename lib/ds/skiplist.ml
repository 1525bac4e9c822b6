(** Lazy skip list (Herlihy-Shavit style): lock-based updates with lock-free,
    wait-free searches — the second workload of the paper's evaluation
    (key range [0, 2*10^5)).

    Memory reclamation interacts with the lock-free searches exactly as in a
    fully lock-free structure: a search may stand on a node while a remover
    unlinks and retires it, so retired nodes must not be freed under the
    reader.  Epoch schemes handle this for free.  Under an HP-style scheme
    every pred/succ kept by a traversal must stay protected (the skip list
    needs ~2*MAX_LEVEL+2 hazard pointers per process — set
    [Params.hp_slots] accordingly), with validation by re-reading the
    predecessor's next pointer, and any failed validation restarts the
    operation.

    Updates hold locks, which neutralization must respect: a neutralized
    lock holder would leave the lock taken forever.  Every lock-held window
    is therefore bracketed with {!Runtime.Ctx.mask}/[unmask] — the analogue
    of [pthread_sigmask] around a critical section — so a neutralization
    signal arriving mid-window is deferred to the unlock.  This is only
    sound under acknowledgement-based signal delivery
    ([Group.signals_unreliable]): with reliable delivery DEBRA+ counts one
    send as one neutralization, and a masked (not yet neutralized) target
    would be counted as passed — so {!create} switches the group to
    unreliable delivery whenever the scheme can neutralize.  Operations run
    under [RM.run_op] with recoveries that track the linearization point:
    an effectful completion (a successful insert's link, a successful
    delete's unlink-and-retire) happens inside a masked window, so recovery
    reports it exactly once and never re-executes it.

    Typestate tier: like the BST, the skip list uses the lifecycle half of
    {!Reclaim.Intf.RECORD_MANAGER.Typed} — typed allocation and sentinels,
    [acquire] at the HP validation sites, and the lock-held
    [publish_locked]/[unlink_locked] witnesses (its updates happen under
    locks, not CASes) feeding the witness-consuming retire — while keeping
    raw dereferences for the wait-free searches that may stand on retired
    nodes. *)

let max_level = 16

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = RM.Typed

  (* Node layout *)
  let c_key = 0
  let c_value = 1
  let c_top = 2
  let f_marked = 0
  let f_fully_linked = 1
  let f_lock = 2
  let f_next l = 3 + l

  type t = {
    rm : RM.t;
    arena : Memory.Arena.t;
    head : Memory.Ptr.t;
    tail : Memory.Ptr.t;
  }

  let create rm ~capacity =
    let env = RM.env rm in
    let arena =
      Memory.Heap.new_arena env.Reclaim.Intf.Env.heap ~name:"skiplist.node"
        ~mut_fields:(3 + max_level) ~const_fields:3 ~capacity:(capacity + 2)
    in
    let ctx = Runtime.Group.ctx env.Reclaim.Intf.Env.group 0 in
    let head = T.alloc rm ctx arena in
    let tail = T.alloc rm ctx arena in
    let tailp = T.fresh_ptr tail in
    T.init_const rm ctx arena head c_key min_int;
    T.init_const rm ctx arena head c_value 0;
    T.init_const rm ctx arena head c_top (max_level - 1);
    T.init_const rm ctx arena tail c_key max_int;
    T.init_const rm ctx arena tail c_value 0;
    T.init_const rm ctx arena tail c_top (max_level - 1);
    for l = 0 to max_level - 1 do
      T.init rm ctx arena head (f_next l) tailp;
      T.init rm ctx arena tail (f_next l) Memory.Ptr.null
    done;
    T.init rm ctx arena head f_marked 0;
    T.init rm ctx arena head f_fully_linked 1;
    T.init rm ctx arena head f_lock 0;
    T.init rm ctx arena tail f_marked 0;
    T.init rm ctx arena tail f_fully_linked 1;
    T.init rm ctx arena tail f_lock 0;
    let head = T.sentinel rm ctx head in
    let tail = T.sentinel rm ctx tail in
    (* Signal masking around lock-held windows is only sound when senders
       wait for acknowledgement instead of counting a delivered signal as a
       completed neutralization (see the header). *)
    if RM.supports_crash_recovery then
      env.Reclaim.Intf.Env.group.Runtime.Group.signals_unreliable <- true;
    { rm; arena; head; tail }

  let arena t = t.arena
  let key_of t ctx p = Memory.Arena.get_const ctx t.arena p c_key
  let top_of t ctx p = Memory.Arena.get_const ctx t.arena p c_top
  let next_of t ctx p l = Memory.Arena.read ctx t.arena p (f_next l)
  let marked t ctx p = Memory.Arena.read ctx t.arena p f_marked = 1
  let fully_linked t ctx p = Memory.Arena.read ctx t.arena p f_fully_linked = 1

  (* Spin locks on a node field; spinning polls the signal flag on every
     read, so the simulator can always make progress. *)
  let lock t ctx p =
    while not (Memory.Arena.cas ctx t.arena p f_lock ~expect:0 1) do
      Runtime.Ctx.work ctx 1
    done

  let unlock t ctx p = Memory.Arena.write ctx t.arena p f_lock 0

  (* Idempotent mask bookkeeping for one operation: exception paths (sandbox
     aborts) can then restore balance without tracking depth. *)
  let masker ctx =
    let masked = ref false in
    let mask_ () =
      if not !masked then begin
        Runtime.Ctx.mask ctx;
        masked := true
      end
    in
    let unmask_ () =
      if !masked then begin
        masked := false;
        Runtime.Ctx.unmask ctx
      end
    in
    (mask_, unmask_)

  let random_level ctx =
    let rec go l =
      if l >= max_level - 1 then l
      else if Random.State.bool ctx.Runtime.Ctx.rng then go (l + 1)
      else l
    in
    go 0

  exception Restart

  let is_sentinel t p = p = t.head || p = t.tail

  (* Release [node]'s protection unless it is still referenced by the
     preds/succs arrays (whose protections must survive until the locking
     phase). *)
  let unprotect_unless_stored t ctx preds succs node =
    if not (is_sentinel t node) then begin
      let stored = ref false in
      for l = 0 to max_level - 1 do
        if preds.(l) = node || succs.(l) = node then stored := true
      done;
      if not !stored then RM.unprotect t.rm ctx node
    end

  (* The skip-list traversal.  Fills preds/succs; returns the highest level
     at which the key was found, or -1. *)
  let find t ctx s key preds succs =
    let protect_step pred curr l =
      is_sentinel t curr
      ||
      let verify =
        if RM.protect_ignores_verify then T.unverified
        else fun () -> next_of t ctx pred l = curr
      in
      match T.acquire t.rm ctx s curr ~verify with
      | _ -> true
      | exception Reclaim.Intf.Acquire_denied -> false
    in
    let rec attempt () =
      Array.fill preds 0 max_level Memory.Ptr.null;
      Array.fill succs 0 max_level Memory.Ptr.null;
      match walk (max_level - 1) t.head (-1) with
      | lfound -> lfound
      | exception Restart ->
          RM.unprotect_all t.rm ctx;
          attempt ()
      | exception Memory.Arena.Use_after_free _ when RM.sandboxed ->
          (* Under a sandboxing scheme (StackTrack), touching reclaimed
             memory is a transaction abort: retry the traversal. *)
          RM.unprotect_all t.rm ctx;
          attempt ()
    and walk level pred lfound =
      if level < 0 then lfound
      else begin
        let curr = ref (next_of t ctx pred level) in
        if not (protect_step pred !curr level) then raise Restart;
        let pred = ref pred in
        while key_of t ctx !curr < key do
          let old = !pred in
          pred := !curr;
          curr := next_of t ctx !pred level;
          if not (protect_step !pred !curr level) then raise Restart;
          unprotect_unless_stored t ctx preds succs old
        done;
        let lfound =
          if lfound < 0 && key_of t ctx !curr = key then level else lfound
        in
        preds.(level) <- !pred;
        succs.(level) <- !curr;
        walk (level - 1) !pred lfound
      end
    in
    attempt ()

  (* Body-end quiescence (inside run_op: skipped when a recovery completes
     the operation instead, as in the other structures). *)
  let quiesce t ctx s =
    T.enter t.rm ctx s;
    T.release_all t.rm ctx

  let bump_ops _t ctx =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1

  (* Retry loop for sandboxing schemes: a use-after-free is a transaction
     abort, not an error. *)
  let rec sandbox_retry t ctx f =
    match f () with
    | v -> v
    | exception Memory.Arena.Use_after_free _ when RM.sandboxed ->
        RM.unprotect_all t.rm ctx;
        sandbox_retry t ctx f

  (* Reads have no effect to protect: a neutralized search simply restarts
     from scratch. *)
  let contains t ctx key =
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.unprotect_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let r =
            sandbox_retry t ctx (fun () ->
                let lfound = find t ctx s key preds succs in
                lfound >= 0
                && fully_linked t ctx succs.(lfound)
                && not (marked t ctx succs.(lfound)))
          in
          quiesce t ctx s;
          r)
    in
    bump_ops t ctx;
    r

  let get t ctx key =
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let r =
      T.run_op t.rm ctx
      ~recover:(fun () ->
        RM.unprotect_all t.rm ctx;
        None)
      (fun s ->
        T.leave t.rm ctx s;
        let r =
          sandbox_retry t ctx (fun () ->
              let lfound = find t ctx s key preds succs in
              if
                lfound >= 0
                && fully_linked t ctx succs.(lfound)
                && not (marked t ctx succs.(lfound))
              then
                Some (Memory.Arena.get_const ctx t.arena succs.(lfound) c_value)
              else None)
        in
        quiesce t ctx s;
        r)
    in
    bump_ops t ctx;
    r

  let unlock_preds t ctx preds highest =
    let prev = ref Memory.Ptr.null in
    for l = 0 to highest do
      if preds.(l) <> !prev then begin
        unlock t ctx preds.(l);
        prev := preds.(l)
      end
    done

  let insert t ctx ~key ~value =
    assert (key > min_int && key < max_int);
    let top = random_level ctx in
    (* Quiescent preamble: allocate the node; its fresh witness is spent by
       [publish_locked] inside the successful attempt's masked window. *)
    let node = T.alloc t.rm ctx t.arena in
    T.init_const t.rm ctx t.arena node c_key key;
    T.init_const t.rm ctx t.arena node c_value value;
    T.init_const t.rm ctx t.arena node c_top top;
    T.init t.rm ctx t.arena node f_marked 0;
    T.init t.rm ctx t.arena node f_fully_linked 0;
    T.init t.rm ctx t.arena node f_lock 0;
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let highest_locked = ref (-1) in
    let inserted = ref false in
    let mask_, unmask_ = masker ctx in
    let rec attempt s =
      highest_locked := -1;
      match
        let lfound = find t ctx s key preds succs in
        if lfound >= 0 then begin
          let found = succs.(lfound) in
          if not (marked t ctx found) then begin
            (* Wait for a concurrent insert of the same key to finish; the
               linking window is masked, so its owner cannot be neutralized
               before setting fully_linked.  (The waiter itself can be.) *)
            while not (fully_linked t ctx found) do
              Runtime.Ctx.work ctx 1
            done;
            `Done false
          end
          else (* Marked: its removal is in progress; retry. *) `Retry
        end
        else begin
          (* Lock distinct predecessors bottom-up and validate.  Masked from
             the first acquisition attempt: no neutralization while any lock
             might be held. *)
          let valid = ref true in
          let prev = ref Memory.Ptr.null in
          let l = ref 0 in
          mask_ ();
          while !valid && !l <= top do
            let pred = preds.(!l) and succ = succs.(!l) in
            if pred <> !prev then begin
              lock t ctx pred;
              highest_locked := !l;
              prev := pred
            end;
            valid :=
              (not (marked t ctx pred))
              && (not (marked t ctx succ))
              && next_of t ctx pred !l = succ;
            incr l
          done;
          if not !valid then begin
            unlock_preds t ctx preds !highest_locked;
            unmask_ ();
            `Retry
          end
          else begin
            for l = 0 to top do
              T.init t.rm ctx t.arena node (f_next l) succs.(l)
            done;
            (* The first predecessor link makes the node reachable: spend
               the fresh witness here, under the validated locks. *)
            let nodep = T.publish_locked t.rm ctx s node in
            for l = 0 to top do
              Memory.Arena.write ctx t.arena preds.(l) (f_next l) nodep
            done;
            Memory.Arena.write ctx t.arena nodep f_fully_linked 1;
            (* Linearized (still masked): recovery must answer true from
               here on, never re-link. *)
            inserted := true;
            unlock_preds t ctx preds !highest_locked;
            unmask_ ();
            `Done true
          end
        end
      with
      | `Done r -> r
      | `Retry ->
          RM.unprotect_all t.rm ctx;
          attempt s
      | exception Memory.Arena.Use_after_free _ when RM.sandboxed ->
          (* Transaction abort: release any locks taken (locked nodes cannot
             have been freed) and retry from a clean traversal. *)
          unlock_preds t ctx preds !highest_locked;
          unmask_ ();
          RM.unprotect_all t.rm ctx;
          attempt s
    in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.unprotect_all t.rm ctx;
          if !inserted then Some true else None)
        (fun s ->
          T.leave t.rm ctx s;
          let r = attempt s in
          quiesce t ctx s;
          r)
    in
    bump_ops t ctx;
    if not r then T.abandon t.rm ctx node;
    r

  let ok_to_delete t ctx node lfound =
    fully_linked t ctx node
    && top_of t ctx node = lfound
    && not (marked t ctx node)

  let delete t ctx key =
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let victim = ref Memory.Ptr.null in
    let is_marked = ref false in
    let top = ref (-1) in
    let highest_locked = ref (-1) in
    let deleted = ref false in
    let mask_, unmask_ = masker ctx in
    let rec attempt s =
      highest_locked := -1;
      match
        let lfound = find t ctx s key preds succs in
        if
          !is_marked
          || (lfound >= 0 && ok_to_delete t ctx succs.(lfound) lfound)
        then begin
          if not !is_marked then begin
            victim := succs.(lfound);
            top := top_of t ctx !victim;
            (* Masked from the victim lock acquisition until every lock is
               released again (possibly across `Retry re-finds, which keep
               the marked victim locked). *)
            mask_ ();
            lock t ctx !victim;
            if marked t ctx !victim then begin
              unlock t ctx !victim;
              unmask_ ();
              `Done false
            end
            else begin
              Memory.Arena.write ctx t.arena !victim f_marked 1;
              is_marked := true;
              finish_unlink s
            end
          end
          else finish_unlink s
        end
        else `Done false
      with
      | `Done r -> r
      | `Retry ->
          RM.unprotect_all t.rm ctx;
          attempt s
      | exception Memory.Arena.Use_after_free _ when RM.sandboxed ->
          (* Transaction abort; the marked-and-locked victim, if any, stays
             ours (and masked), so the retry resumes the unlink. *)
          unlock_preds t ctx preds !highest_locked;
          if not !is_marked then unmask_ ();
          RM.unprotect_all t.rm ctx;
          attempt s
    and finish_unlink s =
      let valid = ref true in
      let prev = ref Memory.Ptr.null in
      let l = ref 0 in
      while !valid && !l <= !top do
        let pred = preds.(!l) in
        if pred <> !prev then begin
          lock t ctx pred;
          highest_locked := !l;
          prev := pred
        end;
        valid := (not (marked t ctx pred)) && next_of t ctx pred !l = !victim;
        incr l
      done;
      if not !valid then begin
        unlock_preds t ctx preds !highest_locked;
        `Retry
      end
      else begin
        for l = !top downto 0 do
          Memory.Arena.write ctx t.arena preds.(l) (f_next l)
            (next_of t ctx !victim l)
        done;
        unlock t ctx !victim;
        (* The lock-held unlink above removed every link to the victim:
           mint the witness the retire consumes. *)
        let w = T.unlink_locked t.rm ctx s !victim in
        T.retire t.rm ctx w;
        unlock_preds t ctx preds !highest_locked;
        (* Linearized and retired exactly once (still masked until here):
           recovery must answer true from now on. *)
        deleted := true;
        unmask_ ();
        `Done true
      end
    in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.unprotect_all t.rm ctx;
          if !deleted then Some true else None)
        (fun s ->
          T.leave t.rm ctx s;
          let r = attempt s in
          quiesce t ctx s;
          r)
    in
    bump_ops t ctx;
    r

  (* [remove] is [delete] returning the victim's value, read (const field)
     in the masked window between locking the victim and marking it — the
     unique marker learns the value.  A separate spelling keeps [delete]'s
     instrumented access sequence, pinned by golden schedules, unchanged. *)
  let remove t ctx key =
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let victim = ref Memory.Ptr.null in
    let is_marked = ref false in
    let top = ref (-1) in
    let highest_locked = ref (-1) in
    let removed = ref None in
    let value = ref 0 in
    let mask_, unmask_ = masker ctx in
    let rec attempt s =
      highest_locked := -1;
      match
        let lfound = find t ctx s key preds succs in
        if
          !is_marked
          || (lfound >= 0 && ok_to_delete t ctx succs.(lfound) lfound)
        then begin
          if not !is_marked then begin
            victim := succs.(lfound);
            top := top_of t ctx !victim;
            mask_ ();
            lock t ctx !victim;
            if marked t ctx !victim then begin
              unlock t ctx !victim;
              unmask_ ();
              `Done None
            end
            else begin
              value := Memory.Arena.get_const ctx t.arena !victim c_value;
              Memory.Arena.write ctx t.arena !victim f_marked 1;
              is_marked := true;
              finish_unlink s
            end
          end
          else finish_unlink s
        end
        else `Done None
      with
      | `Done r -> r
      | `Retry ->
          RM.unprotect_all t.rm ctx;
          attempt s
      | exception Memory.Arena.Use_after_free _ when RM.sandboxed ->
          unlock_preds t ctx preds !highest_locked;
          if not !is_marked then unmask_ ();
          RM.unprotect_all t.rm ctx;
          attempt s
    and finish_unlink s =
      let valid = ref true in
      let prev = ref Memory.Ptr.null in
      let l = ref 0 in
      while !valid && !l <= !top do
        let pred = preds.(!l) in
        if pred <> !prev then begin
          lock t ctx pred;
          highest_locked := !l;
          prev := pred
        end;
        valid := (not (marked t ctx pred)) && next_of t ctx pred !l = !victim;
        incr l
      done;
      if not !valid then begin
        unlock_preds t ctx preds !highest_locked;
        `Retry
      end
      else begin
        for l = !top downto 0 do
          Memory.Arena.write ctx t.arena preds.(l) (f_next l)
            (next_of t ctx !victim l)
        done;
        unlock t ctx !victim;
        let w = T.unlink_locked t.rm ctx s !victim in
        T.retire t.rm ctx w;
        unlock_preds t ctx preds !highest_locked;
        removed := Some !value;
        unmask_ ();
        `Done !removed
      end
    in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.unprotect_all t.rm ctx;
          match !removed with Some v -> Some (Some v) | None -> None)
        (fun s ->
          T.leave t.rm ctx s;
          let r = attempt s in
          quiesce t ctx s;
          r)
    in
    bump_ops t ctx;
    r

  (* [fold_entry t ctx key ~f] finds the key and runs [f] inside the open
     session while the node is protected (it sits in [succs], so the
     traversal's protection survives): [f s ~value ~live] may acquire
     further protections through [s], with [live] — true while the node is
     not yet marked — as the acquire-time verification.  Sound for a
     hazard-style chained acquire because anything reachable from [value]
     is retired only after the node is marked. *)
  let fold_entry t ctx key ~f =
    let preds = Array.make max_level Memory.Ptr.null in
    let succs = Array.make max_level Memory.Ptr.null in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.unprotect_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let r =
            sandbox_retry t ctx (fun () ->
                let lfound = find t ctx s key preds succs in
                if
                  lfound >= 0
                  && fully_linked t ctx succs.(lfound)
                  && not (marked t ctx succs.(lfound))
                then begin
                  let node = succs.(lfound) in
                  let value = Memory.Arena.get_const ctx t.arena node c_value in
                  let live () = not (marked t ctx node) in
                  Some (f s ~value ~live)
                end
                else None)
          in
          quiesce t ctx s;
          r)
    in
    bump_ops t ctx;
    r

  (* Uninstrumented helpers. *)

  let to_list t =
    let rec go acc p =
      if Memory.Ptr.is_null p || p = t.tail then List.rev acc
      else
        let k = Memory.Arena.peek_const t.arena p c_key in
        let acc =
          if Memory.Arena.peek t.arena p f_marked = 1 then acc else k :: acc
        in
        go acc (Memory.Arena.peek t.arena p (f_next 0))
    in
    go [] (Memory.Arena.peek t.arena t.head (f_next 0))

  let size t = List.length (to_list t)

  exception Broken of string

  let check_invariants t =
    (* Level-0 keys strictly increasing; every level's list is a
       subsequence ordered by key; reachable nodes valid. *)
    for l = 0 to max_level - 1 do
      let rec go p last n =
        if n > Memory.Arena.capacity t.arena then
          raise (Broken "cycle suspected");
        if not (Memory.Ptr.is_null p || p = t.tail) then begin
          if not (Memory.Arena.is_valid t.arena p) then
            raise (Broken "reachable freed node");
          let k = Memory.Arena.peek_const t.arena p c_key in
          if k <= last then raise (Broken "keys not increasing");
          if Memory.Arena.peek_const t.arena p c_top < l then
            raise (Broken "node linked above its top level");
          go (Memory.Arena.peek t.arena p (f_next l)) k (n + 1)
        end
      in
      go (Memory.Arena.peek t.arena t.head (f_next l)) min_int 0
    done
end
