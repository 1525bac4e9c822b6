type access_kind = Read | Write | Cas | Fence | Work of int

exception Neutralized
exception Crashed

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cass : int;
  mutable fences : int;
  mutable local_work : int;
  mutable allocs : int;
  mutable frees : int;
  mutable retires : int;
  mutable ops : int;
  mutable neutralized : int;
  mutable signals_sent : int;
  mutable signals_ignored : int;
}

type t = {
  pid : int;
  nprocs : int;
  sig_pending : bool Atomic.t;
  mutable sig_mask : int;
  mutable handler : t -> unit;
  mutable hook : t -> line:int -> access_kind -> unit;
  mutable now_impl : unit -> int;
  mutable stall_impl : int -> unit;
  mutable rng : Random.State.t;
  stats : stats;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    cass = 0;
    fences = 0;
    local_work = 0;
    allocs = 0;
    frees = 0;
    retires = 0;
    ops = 0;
    neutralized = 0;
    signals_sent = 0;
    signals_ignored = 0;
  }

let make ~pid ~nprocs ~seed =
  {
    pid;
    nprocs;
    sig_pending = Atomic.make false;
    sig_mask = 0;
    handler = (fun _ -> ());
    hook = (fun _ ~line:_ _ -> ());
    now_impl = (fun () -> 0);
    stall_impl = (fun _ -> ());
    rng = Random.State.make [| seed; pid |];
    stats = fresh_stats ();
  }

let poll ctx =
  if ctx.sig_mask = 0 && Atomic.get ctx.sig_pending then begin
    Atomic.set ctx.sig_pending false;
    ctx.handler ctx
  end

(* Masking defers handler delivery; the pending flag stays set, so the
   handler runs at the first access after the outermost [unmask] — the
   moral equivalent of [pthread_sigmask] around a lock-held critical
   section. *)
let mask ctx = ctx.sig_mask <- ctx.sig_mask + 1

let unmask ctx =
  assert (ctx.sig_mask > 0);
  ctx.sig_mask <- ctx.sig_mask - 1

let access ctx ~line kind =
  poll ctx;
  let s = ctx.stats in
  (match kind with
  | Read -> s.reads <- s.reads + 1
  | Write -> s.writes <- s.writes + 1
  | Cas -> s.cass <- s.cass + 1
  | Fence -> s.fences <- s.fences + 1
  | Work c -> s.local_work <- s.local_work + c);
  ctx.hook ctx ~line kind

let add_hook ctx f =
  let prev = ctx.hook in
  ctx.hook <-
    (fun c ~line kind ->
      f c ~line kind;
      prev c ~line kind);
  fun () -> ctx.hook <- prev

(* The [Work c] kinds for every cost below the cap, built once: charging
   local work hands the hook a shared value instead of boxing a fresh one
   per call.  Costs at or above the cap (per-record scan charges, rare) are
   boxed as before; either way the hook sees the same [Work c]. *)
let work_kinds = Array.init 1024 (fun c -> Work c)

let work ctx cost =
  access ctx ~line:0
    (if cost >= 0 && cost < Array.length work_kinds then
       Array.unsafe_get work_kinds cost
     else Work cost)
let fence ctx = access ctx ~line:0 Fence
let now ctx = ctx.now_impl ()
let stall ctx cycles = ctx.stall_impl cycles
let crash _ctx = raise Crashed

let reset_stats ctx =
  let s = ctx.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.cass <- 0;
  s.fences <- 0;
  s.local_work <- 0;
  s.allocs <- 0;
  s.frees <- 0;
  s.retires <- 0;
  s.ops <- 0;
  s.neutralized <- 0;
  s.signals_sent <- 0;
  s.signals_ignored <- 0

let stats_total_accesses s = s.reads + s.writes + s.cass + s.fences
