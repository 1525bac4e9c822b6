(* Open-loop KV requests: Kv.Store (skip-list index, 4 shards, DEBRA+)
   served by worker domains from a Loadgen plan with Poisson arrivals.

   Workers claim requests in schedule order, spin until each is due and
   serve it; a request's latency runs from its scheduled arrival, so a
   stall charges every request queued behind it.  Spinning, not sleeping:
   a sleeping wait wakes tens of microseconds late.

   Key and value encodings follow bench/kv_bench.ml: even ranks take the
   codec's short injective path and odd ranks the hashed session path, and
   run-time puts of session keys carry a TTL of a quarter of the schedule
   span, so lazy expiry retires payloads throughout the run.  Values are a
   pure function of the key, so every [Some v] a get returns is checked
   exactly even under concurrent puts.

   Each shard has room for every key twice over plus what limbo holds:
   DEBRA+ recycles retired payloads, so the live set stays near [nkeys]. *)

module Store = Kv.Store.Make (Workload.Schemes.RM2_debra_plus)

type cfg = {
  requests : int;
  rate : float;  (** Poisson arrivals per second *)
  nkeys : int;
  mix : Loadgen.mix;
  nprocs : int;
  shards : int;
  seed : int;
}

let key_of_rank r =
  if r land 1 = 0 then Printf.sprintf "k%06d" r
  else Printf.sprintf "session:%08d" r

let value_of_rank r = Printf.sprintf "v%024d" r

type t = {
  cfg : cfg;
  group : Runtime.Group.t;
  store : Store.t;
  plan : Loadgen.plan;
  ttl : int;
  setup_s : float;
  start : int array;  (** per request, plan clock *)
  finish : int array;
  failed : int Atomic.t;
  mismatches : int Atomic.t;
}

let kinds = [| "get"; "put"; "delete"; "scan" |]

let kind_index = function
  | Loadgen.Get _ -> 0
  | Put _ -> 1
  | Delete _ -> 2
  | Scan _ -> 3

let setup (c : cfg) =
  let t0 = Pb.cpu_ns () in
  let group = Runtime.Group.create ~seed:c.seed c.nprocs in
  let store =
    Store.create ~structure:"skiplist" ~shards:c.shards
      ~capacity_per_shard:((2 * c.nkeys) + 16_384) ~group ()
  in
  let ctx0 = Runtime.Group.ctx group 0 in
  for r = 0 to c.nkeys - 1 do
    Store.put store ctx0 ~key:(key_of_rank r) ~value:(value_of_rank r)
  done;
  let plan =
    Loadgen.generate ~n:c.requests ~nkeys:c.nkeys
      ~dist:(Loadgen.Dist.Zipfian 0.99) ~mix:c.mix
      ~arrivals:(Loadgen.Arrivals.Poisson c.rate) ~clock:Exec.Clock.wall
      ~seed:c.seed
  in
  {
    cfg = c;
    group;
    store;
    plan;
    ttl = max 1 (plan.arrivals.(c.requests - 1) / 4);
    setup_s = float (Pb.cpu_ns () - t0) /. 1e9;
    start = Array.make c.requests 0;
    finish = Array.make c.requests 0;
    failed = Atomic.make 0;
    mismatches = Atomic.make 0;
  }

let serve t ctx op =
  let check r = function
    | Some v when v <> value_of_rank r -> Atomic.incr t.mismatches
    | _ -> ()
  in
  match op with
  | Loadgen.Get r -> check r (Store.get t.store ctx (key_of_rank r))
  | Put r ->
      let ttl = if r land 1 = 1 then Some t.ttl else None in
      Store.put ?ttl t.store ctx ~key:(key_of_rank r) ~value:(value_of_rank r)
  | Delete r -> ignore (Store.delete t.store ctx (key_of_rank r))
  | Scan (s, len) ->
      for i = s to s + len - 1 do
        let r = i mod t.cfg.nkeys in
        check r (Store.get t.store ctx (key_of_rank r))
      done

(* Serve the whole plan.  With [spans], record a span per request
   (scheduled arrival to finish) and a child span for its service, built
   afterwards from the workers' timestamps so tracing adds nothing to the
   served path. *)
let run ?spans t =
  let n = t.cfg.requests in
  let next = Atomic.make 0 in
  let plan = t.plan in
  let body pid () =
    let ctx = Runtime.Group.ctx t.group pid in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue := false
      else begin
        let due = plan.arrivals.(i) in
        while Runtime.Ctx.now ctx < due do
          Domain.cpu_relax ()
        done;
        t.start.(i) <- Runtime.Ctx.now ctx;
        (try serve t ctx plan.ops.(i) with
        | Memory.Arena.Arena_full _ | Memory.Arena.Out_of_memory _ ->
            Atomic.incr t.failed);
        t.finish.(i) <- Runtime.Ctx.now ctx
      end
    done
  in
  let r = Par.run t.group (Array.init t.cfg.nprocs body) in
  (match r.errors with e :: _ -> raise e | [] -> ());
  Option.iter
    (fun (st, parent) ->
      let base = r.t0_ns in
      let request = Span.intern "kv.request" in
      let op_names = Array.map (fun k -> Span.intern ("kv." ^ k)) kinds in
      for i = 0 to n - 1 do
        let id =
          Span.record st ~name:request ~parent
            (base + plan.arrivals.(i))
            (base + t.finish.(i))
        in
        ignore
          (Span.record st
             ~name:op_names.(kind_index plan.ops.(i))
             ~parent:id (base + t.start.(i)) (base + t.finish.(i)))
      done)
    spans

type result = {
  setup_s : float;
  latency_ns : float array;  (** finish minus scheduled arrival, sorted *)
  wait_ns : float array;  (** service start minus scheduled arrival, sorted *)
  service_ns : (string * float array) list;  (** per op kind, sorted *)
  attempted : int;
  failed : int;  (** requests that hit a full arena *)
  mismatches : int;  (** gets that returned a wrong value *)
  invariant : string option;
  alloc_retries : int;
  emergency_reclaims : int;
  limbo_end : int;
}

let finish t =
  let n = t.cfg.requests in
  let plan = t.plan in
  let sorted f = Pb.sorted_floats (Array.init n f) in
  let latency i = float (t.finish.(i) - plan.arrivals.(i)) in
  let service k =
    List.init n (fun i ->
        if kind_index plan.ops.(i) = k then
          Some (float (t.finish.(i) - t.start.(i)))
        else None)
    |> List.filter_map Fun.id |> Array.of_list |> Pb.sorted_floats
  in
  let p = Store.pressure t.store in
  {
    setup_s = t.setup_s;
    latency_ns = sorted latency;
    wait_ns = sorted (fun i -> float (t.start.(i) - plan.arrivals.(i)));
    service_ns =
      Array.to_list (Array.mapi (fun k name -> (name, service k)) kinds);
    attempted = n;
    failed = Atomic.get t.failed;
    mismatches = Atomic.get t.mismatches;
    invariant =
      (match Store.check_invariants t.store with
      | () -> None
      | exception e -> Some ("kv: invariant walk: " ^ Printexc.to_string e));
    alloc_retries = p.Reclaim.Intf.Pressure.alloc_retries;
    emergency_reclaims = p.Reclaim.Intf.Pressure.emergency_reclaims;
    limbo_end = Store.limbo t.store;
  }
