type t = {
  mutable arenas : Arena.t array;
  events : Smr_event.hub;
  budget : Arena.budget;  (* live-record budget shared by all arenas *)
}

let create () =
  { arenas = [||]; events = Smr_event.hub (); budget = Arena.budget_unlimited () }
let events t = t.events
let listening t = Smr_event.listening t.events
let emit t ctx ev = Smr_event.emit t.events ctx ev
let add_sink t sink = Smr_event.add_sink t.events sink
let remove_sink t sub = Smr_event.remove_sink t.events sub

let new_arena t ~name ~mut_fields ~const_fields ~capacity =
  let id = Array.length t.arenas in
  if id >= Ptr.max_arenas then
    invalid_arg "Heap.new_arena: too many arenas in one heap";
  let a =
    Arena.create ~events:t.events ~budget:t.budget ~heap_id:id ~name
      ~mut_fields ~const_fields ~capacity ()
  in
  t.arenas <- Array.append t.arenas [| a |];
  a

let arena_of t p = t.arenas.(Ptr.arena_id p)
let arenas t = Array.to_list t.arenas
let release t ctx p ~recycle = Arena.release ctx (arena_of t p) p ~recycle
let set_checking t b = Array.iter (fun a -> Arena.set_checking a b) t.arenas

let set_record_budget t limit = t.budget.Arena.limit <- limit
let record_budget t = t.budget.Arena.limit
let budget_live t = Atomic.get t.budget.Arena.b_live

let sum f t = Array.fold_left (fun acc a -> acc + f a) 0 t.arenas
let live_records t = sum Arena.live_records t
let bytes_claimed t = sum Arena.bytes_claimed t
let bytes_peak t = sum Arena.bytes_peak t
let total_allocs t = sum Arena.total_allocs t
let total_frees t = sum Arena.total_frees t
