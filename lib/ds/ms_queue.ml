(** Michael-Scott lock-free FIFO queue over the Record Manager abstraction.

    A dummy node anchors the queue; dequeue retires the old dummy.  HP
    discipline follows Michael's original treatment: protect the observed
    head (verify it is still the head — the dummy is retired only after the
    head moves), then its successor (verify via the protected head's next
    pointer).

    Like {!Hm_list}, the queue is written against the typestate surface
    ({!Reclaim.Intf.RECORD_MANAGER.Typed}): dereferences go through
    guards, the enqueue candidate remains a [fresh] witness until the
    publishing CAS spends it, and the old dummy is retired only through
    the [unlinked] witness minted by the successful head-swing CAS. *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = RM.Typed

  let f_next = 0
  let c_value = 0

  type t = {
    rm : RM.t;
    arena : Memory.Arena.t;
    head : int Runtime.Svar.t;  (* dummy node *)
    tail : int Runtime.Svar.t;
  }

  let create rm ~capacity =
    let env = RM.env rm in
    let arena =
      Memory.Heap.new_arena env.Reclaim.Intf.Env.heap ~name:"queue.node"
        ~mut_fields:1 ~const_fields:1 ~capacity:(capacity + 1)
    in
    let ctx = Runtime.Group.ctx env.Reclaim.Intf.Env.group 0 in
    let dummy = T.alloc rm ctx arena in
    T.init rm ctx arena dummy f_next Memory.Ptr.null;
    let dummy = T.expose rm ctx dummy in
    { rm; arena; head = Runtime.Svar.make dummy; tail = Runtime.Svar.make dummy }

  let finish_op _t ctx =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1

  (* Fig. 5 recovery: the linearizing CAS (on the old tail's next pointer)
     is followed by the tail swing, so a neutralized enqueue that already
     linearized must report success — a lagging tail is repaired by other
     operations' helping. *)
  let enqueue t ctx value =
    let node = T.alloc t.rm ctx t.arena in
    let nodep = T.fresh_ptr node in
    T.init_const t.rm ctx t.arena node c_value value;
    T.init t.rm ctx t.arena node f_next Memory.Ptr.null;
    let linearized = ref false in
    T.run_op t.rm ctx
      ~recover:(fun () ->
        T.release_all t.rm ctx;
        if !linearized then Some () else None)
      (fun s ->
        T.leave t.rm ctx s;
        let rec attempt () =
          let tail = Runtime.Svar.get ctx t.tail in
          match
            T.acquire t.rm ctx s tail ~verify:(fun () ->
                Runtime.Svar.get ctx t.tail = tail)
          with
          | exception Reclaim.Intf.Acquire_denied -> attempt ()
          | tailg ->
              let next = T.read t.rm ctx t.arena tailg f_next in
              if not (Memory.Ptr.is_null next) then begin
                (* Help swing the lagging tail. *)
                ignore (Runtime.Svar.cas ctx t.tail ~expect:tail next);
                T.release t.rm ctx tailg;
                attempt ()
              end
              else if
                T.publish_cas t.rm ctx t.arena tailg f_next
                  ~expect:Memory.Ptr.null node
              then begin
                linearized := true;
                ignore (Runtime.Svar.cas ctx t.tail ~expect:tail nodep);
                T.release t.rm ctx tailg
              end
              else begin
                T.release t.rm ctx tailg;
                attempt ()
              end
        in
        attempt ();
        T.enter t.rm ctx s);
    finish_op t ctx

  (* Dequeue retires the old dummy after its linearizing CAS; as in the
     stack, the only neutralization point after the CAS precedes the limbo
     insertion, so recovery retires exactly once — the unlinked witness is
     consumed only when the limbo insertion completes. *)
  let dequeue t ctx =
    let taken = ref None in
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          T.release_all t.rm ctx;
          match !taken with
          | Some (w, v) ->
              T.retire t.rm ctx w;
              Some (Some v)
          | None -> None)
        (fun s ->
          T.leave t.rm ctx s;
          let rec attempt () =
            let head = Runtime.Svar.get ctx t.head in
            match
              T.acquire t.rm ctx s head ~verify:(fun () ->
                  Runtime.Svar.get ctx t.head = head)
            with
            | exception Reclaim.Intf.Acquire_denied -> attempt ()
            | headg -> (
                let tail = Runtime.Svar.get ctx t.tail in
                let next = T.read t.rm ctx t.arena headg f_next in
                if Memory.Ptr.is_null next then begin
                  T.release t.rm ctx headg;
                  None (* empty *)
                end
                else
                  match
                    T.acquire t.rm ctx s next ~verify:(fun () ->
                        (* Re-verify the *head*, not [head.next]: next
                           pointers are immutable once set, so
                           [head.next = next] would still hold after [next]
                           itself was dequeued and retired.  Head still
                           being [head] proves neither record has been
                           retired (Michael's original re-check). *)
                        Runtime.Svar.get ctx t.head = head)
                  with
                  | exception Reclaim.Intf.Acquire_denied ->
                      T.release t.rm ctx headg;
                      attempt ()
                  | nextg ->
                      if head = tail then begin
                        (* Tail is lagging: help it forward, then retry. *)
                        ignore (Runtime.Svar.cas ctx t.tail ~expect:tail next);
                        T.release_all t.rm ctx;
                        attempt ()
                      end
                      else begin
                        let v = T.get_const t.rm ctx t.arena nextg c_value in
                        match
                          T.svar_cas_unlink t.rm ctx t.head ~expect:head next
                            ~unlinks:[ head ]
                        with
                        | Some [ w ] ->
                            taken := Some (w, v);
                            T.retire t.rm ctx w;
                            T.release_all t.rm ctx;
                            Some v
                        | Some _ -> assert false
                        | None ->
                            T.release_all t.rm ctx;
                            attempt ()
                      end)
          in
          let r = attempt () in
          T.enter t.rm ctx s;
          r)
    in
    finish_op t ctx;
    r

  (* Uninstrumented helpers. *)
  let to_list t =
    let rec go acc p =
      if Memory.Ptr.is_null p then List.rev acc
      else
        go
          (Memory.Arena.peek_const t.arena p c_value :: acc)
          (Memory.Arena.peek t.arena p f_next)
    in
    (* Skip the dummy. *)
    go [] (Memory.Arena.peek t.arena (Runtime.Svar.peek t.head) f_next)

  let size t = List.length (to_list t)
end
