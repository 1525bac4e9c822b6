(** Pools (paper §4 "Object pool", §7).

    [Direct]: no pooling — reclaimed records go straight back to the
    Allocator, and allocation always hits the Allocator.  Experiment 1 uses
    this together with [Alloc.Bump], so reclaimed records are leaked and the
    data structure pays for reclamation without enjoying reuse.

    [Shared]: the paper's pool — a pool bag per process plus one shared bag;
    full blocks spill to the shared bag when the local bag exceeds its cap,
    and allocation prefers local records, then shared blocks, then the
    Allocator. *)

module Direct (A : Intf.ALLOCATOR) : Intf.POOL with module Alloc = A = struct
  module Alloc = A

  type t = { alloc : A.t; env : Intf.Env.t }

  let name = "direct"
  let create env alloc = { alloc; env }
  let allocate t ctx arena = A.allocate t.alloc ctx arena
  let release t ctx p = A.deallocate t.alloc ctx p

  let release_block t ctx b =
    for i = 0 to b.Bag.Block.count - 1 do
      A.deallocate t.alloc ctx b.Bag.Block.data.(i)
    done;
    b.Bag.Block.count <- 0;
    Bag.Block_pool.put t.env.Intf.Env.block_pools.(ctx.Runtime.Ctx.pid) b

  let population _t = 0
end

module Shared (A : Intf.ALLOCATOR) : Intf.POOL with module Alloc = A = struct
  module Alloc = A

  (* One pool bag per arena per process: records of different types must not
     be mixed when they are reused. *)
  type t = {
    alloc : A.t;
    env : Intf.Env.t;
    local : Bag.Blockbag.t array array;  (* [arena][pid] *)
    shared : Bag.Shared_bag.t array;  (* [arena] *)
  }

  let name = "pool"

  let create env alloc =
    let n = Intf.Env.nprocs env in
    let arenas = Memory.Ptr.max_arenas in
    {
      alloc;
      env;
      local =
        Array.init arenas (fun _ ->
            Array.init n (fun pid ->
                Bag.Blockbag.create env.Intf.Env.block_pools.(pid)));
      shared = Array.init arenas (fun _ -> Bag.Shared_bag.create ());
    }

  let spill_if_needed t ctx bag aid =
    if
      Bag.Blockbag.size_in_blocks bag
      > t.env.Intf.Env.params.Intf.Params.pool_cap_blocks
    then
      ignore
        (Bag.Blockbag.move_all_full_blocks bag ~into:(fun b ->
             Bag.Shared_bag.push ctx t.shared.(aid) b))

  (* Pooled records keep their generation: they will be handed out again
     without passing through the arena, so put/take events are the only
     trace of their reuse a shadow checker can see. *)
  let emit_put t ctx p =
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Pool_put p)

  let emit_take t ctx p =
    if Intf.Env.listening t.env then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Pool_take p)

  let release t ctx p =
    let aid = Memory.Ptr.arena_id p in
    let bag = t.local.(aid).(ctx.Runtime.Ctx.pid) in
    Runtime.Ctx.work ctx 2;
    emit_put t ctx p;
    Bag.Blockbag.add bag p;
    spill_if_needed t ctx bag aid

  let release_block t ctx b =
    (* Whole blocks go to the local bag; surplus spills in bulk. *)
    if Bag.Block.is_full b then begin
      let aid = Memory.Ptr.arena_id b.Bag.Block.data.(0) in
      let bag = t.local.(aid).(ctx.Runtime.Ctx.pid) in
      Runtime.Ctx.work ctx 2;
      for i = 0 to b.Bag.Block.count - 1 do
        emit_put t ctx b.Bag.Block.data.(i)
      done;
      Bag.Blockbag.add_block bag b;
      spill_if_needed t ctx bag aid
    end
    else begin
      for i = 0 to b.Bag.Block.count - 1 do
        release t ctx b.Bag.Block.data.(i)
      done;
      b.Bag.Block.count <- 0;
      Bag.Block_pool.put t.env.Intf.Env.block_pools.(ctx.Runtime.Ctx.pid) b
    end

  let allocate t ctx arena =
    let aid = Memory.Arena.heap_id arena in
    let bag = t.local.(aid).(ctx.Runtime.Ctx.pid) in
    Runtime.Ctx.work ctx 2;
    match Bag.Blockbag.pop bag with
    | Some p ->
        emit_take t ctx p;
        p
    | None -> (
        match Bag.Shared_bag.pop ctx t.shared.(aid) with
        | Some b ->
            Bag.Blockbag.add_block bag b;
            (match Bag.Blockbag.pop bag with
            | Some p ->
                emit_take t ctx p;
                p
            | None -> A.allocate t.alloc ctx arena)
        | None -> A.allocate t.alloc ctx arena)

  (* Shared bags hold full blocks only, so their record population is exact
     at B records per block. *)
  let population t =
    let b = t.env.Intf.Env.params.Intf.Params.block_capacity in
    Array.fold_left
      (fun acc per_pid ->
        Array.fold_left (fun acc bag -> acc + Bag.Blockbag.size bag) acc per_pid)
      0 t.local
    + b
      * Array.fold_left
          (fun acc sh -> acc + Bag.Shared_bag.size_in_blocks sh)
          0 t.shared
end
