(** The branching oracle: drives a structure down one symbolic path.

    Every [Typed.acquire] and every lifecycle CAS consults
    {!Reclaim.Intf.Env.decide_acquire} or {!Reclaim.Intf.Env.decide_cas};
    the oracle numbers those decision points in
    program order and answers [Adversary] exactly at the indices in its
    [deny] set — simulating a failed validation or a lost CAS without any
    concurrent process.  Because an index is consumed once, a retry loop
    that re-reaches the same static site draws a fresh index and (outside
    the deny set) gets [Grant], so every path terminates unless the
    structure itself has lost lock-freedom — which the decision budget
    converts into {!Engine.Diverged} rather than a hang. *)

type t = {
  deny : int list;
  budget : int;
  mutable count : int;
  mutable log : string list;  (* newest first *)
}

let create ?(budget = 20_000) ~deny () = { deny; budget; count = 0; log = [] }

let describe_point = function
  | Reclaim.Intf.Protocol.Acquire_point p ->
      Printf.sprintf "acquire %s" (Memory.Ptr.to_string p)
  | Cas_point p -> Printf.sprintf "cas@%s" (Memory.Ptr.to_string p)

let decide t _ctx point =
  let i = t.count in
  t.count <- t.count + 1;
  if t.count > t.budget then
    raise
      (Engine.Diverged
         (Printf.sprintf "decision budget (%d) exhausted" t.budget));
  let d =
    if List.mem i t.deny then Reclaim.Intf.Protocol.Adversary
    else Reclaim.Intf.Protocol.Grant
  in
  t.log <-
    Printf.sprintf "#%d %s -> %s" i (describe_point point)
      (match d with Grant -> "grant" | Adversary -> "adversary")
    :: t.log;
  d

let attach t (env : Reclaim.Intf.Env.t) =
  env.Reclaim.Intf.Env.oracle <- Some (fun ctx point -> decide t ctx point);
  fun () -> env.Reclaim.Intf.Env.oracle <- None

let decisions t = t.count
let log t = List.rev t.log
