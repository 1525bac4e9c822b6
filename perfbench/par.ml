(* Run one body per group member on its own domain.

   Unlike Runtime.Domain_runner, time zero is taken only after every
   domain has been spawned and has reported ready, so domain start-up is
   neither charged to the run nor seen by an open-loop schedule whose
   first requests are due at time zero. *)

type result = {
  t0_ns : int;  (** time zero on the monotonic clock; [Ctx.now] counts from it *)
  errors : exn list;  (** what the bodies raised *)
}

let run (group : Runtime.Group.t) (bodies : (unit -> unit) array) =
  let n = Runtime.Group.nprocs group in
  assert (Array.length bodies = n);
  let t0 = Atomic.make max_int in
  let ready = Atomic.make 0 in
  Array.iter
    (fun (ctx : Runtime.Ctx.t) ->
      ctx.now_impl <- (fun () -> Pb.now_ns () - Atomic.get t0))
    group.Runtime.Group.ctxs;
  let domains =
    Array.init n (fun pid ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get t0 = max_int do
              Domain.cpu_relax ()
            done;
            match bodies.(pid) () with
            | () -> None
            | exception e ->
                Runtime.Group.mark_crashed group pid;
                Some e))
  in
  while Atomic.get ready < n do
    Domain.cpu_relax ()
  done;
  Atomic.set t0 (Pb.now_ns ());
  let errors = Array.to_list (Array.map Domain.join domains) in
  { t0_ns = Atomic.get t0; errors = List.filter_map Fun.id errors }
