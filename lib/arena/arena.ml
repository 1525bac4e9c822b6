exception Use_after_free of string
exception Double_free of string
exception Arena_full of string
exception Out_of_memory of string

(* A live-record budget shared by every arena of one heap: the simulated
   analogue of running the process under a bounded heap (ulimit -v).  A
   negative limit means unlimited; the counter still tracks so the limit can
   be installed mid-run. *)
type budget = { mutable limit : int; b_live : int Atomic.t }

let budget_unlimited () = { limit = -1; b_live = Atomic.make 0 }

(* One row of [stride = 1 + mut_fields + const_fields] words per record:
   a header word, then the mutable words, then the constant words.  The
   header packs [gen lsl 1 lor allocated]; the generation only grows. *)
let[@inline] header ~gen ~allocated = (gen lsl 1) lor Bool.to_int allocated
let[@inline] header_gen h = h lsr 1
let[@inline] header_allocated h = h land 1 = 1

(* The bits of a header that a pointer's generation field can match. *)
let header_mask = header ~gen:Ptr.gen_mask ~allocated:true

(* Atomic operations on one element of [rows], with [Atomic]'s seq-cst
   ordering (arena_stubs.c).  They skip the bounds check, so every call
   goes through [cell] below. *)
external atomic_load : int array -> (int[@untagged]) -> int
  = "arena_atomic_load_byte" "arena_atomic_load"
[@@noalloc]

external atomic_store : int array -> (int[@untagged]) -> int -> unit
  = "arena_atomic_store_byte" "arena_atomic_store"
[@@noalloc]

external atomic_cas : int array -> (int[@untagged]) -> int -> int -> bool
  = "arena_atomic_cas_byte" "arena_atomic_cas"
[@@noalloc]

type t = {
  heap_id : int;
  name : string;
  mut_fields : int;
  const_fields : int;
  capacity : int;
  stride : int;
  rows : int array;  (* capacity * stride *)
  free_next : int array;  (* per slot: Treiber-stack link *)
  free_head : int Atomic.t;  (* top slot of the free list, -1 = empty *)
  bump : int Atomic.t;  (* next never-used slot *)
  base_line : int;
  words_per_record : int;
  budget : budget;
  events : Smr_event.hub;
  live : int Atomic.t;
  peak : int Atomic.t;
  allocs : int Atomic.t;
  frees : int Atomic.t;
}

let create ?events ?budget ~heap_id ~name ~mut_fields ~const_fields ~capacity
    () =
  assert (capacity > 0 && mut_fields >= 0 && const_fields >= 0);
  let events = match events with Some h -> h | None -> Smr_event.hub () in
  let budget = match budget with Some b -> b | None -> budget_unlimited () in
  let words_per_record = mut_fields + const_fields in
  let stride = 1 + words_per_record in
  {
    heap_id;
    name;
    mut_fields;
    const_fields;
    capacity;
    stride;
    (* All zero: every header is generation 0, unallocated. *)
    rows = Array.make (capacity * stride) 0;
    free_next = Array.make capacity (-1);
    free_head = Atomic.make (-1);
    bump = Atomic.make 0;
    base_line = Runtime.Addr.reserve_words (capacity * max 1 words_per_record);
    words_per_record;
    budget;
    events;
    live = Atomic.make 0;
    peak = Atomic.make 0;
    allocs = Atomic.make 0;
    frees = Atomic.make 0;
  }

let name t = t.name
let heap_id t = t.heap_id
let events t = t.events
let emit t ctx ev = Smr_event.emit t.events ctx ev

(* Every event an arena emits carries a payload, so each emission point
   tests for a listener before building it: an unobserved access allocates
   nothing. *)
let[@inline] listening t = Smr_event.listening t.events

let[@inline] access_event t ctx p kind =
  if listening t then emit t ctx (Smr_event.Access (p, kind))

let capacity t = t.capacity
let record_bytes t = 8 * t.stride

let[@inline] line_of t slot word =
  Runtime.Addr.line_of ~base_line:t.base_line ((slot * t.words_per_record) + word)

let[@inline] header_index t slot = slot * t.stride

let describe t p =
  let h = t.rows.(header_index t (Ptr.slot p)) in
  Printf.sprintf "%s: ptr %s (slot state=%d gen=%d)" t.name (Ptr.to_string p)
    (Bool.to_int (header_allocated h))
    (header_gen h)

(* The generation check: one load of the header and one compare. *)
let[@inline] is_valid t p =
  let slot = Ptr.slot p in
  slot >= 0 && slot < t.capacity
  && t.rows.(header_index t slot) land header_mask
     = header ~gen:(Ptr.gen p) ~allocated:true

(* The failure path stays out of line, so a generation check inlines as
   the comparisons above and one branch. *)
let[@inline never] stale t p = raise (Use_after_free (describe t p))
let[@inline] validate t p = if not (is_valid t p) then stale t p

let note_alloc t ctx =
  ctx.Runtime.Ctx.stats.Runtime.Ctx.allocs <-
    ctx.Runtime.Ctx.stats.Runtime.Ctx.allocs + 1;
  ignore (Atomic.fetch_and_add t.allocs 1);
  let l = 1 + Atomic.fetch_and_add t.live 1 in
  let rec bump_peak () =
    let p = Atomic.get t.peak in
    if l > p && not (Atomic.compare_and_set t.peak p l) then bump_peak ()
  in
  bump_peak ()

(* Optimistically reserve one budget unit; roll back and raise when over the
   limit so a failed allocation leaves the counter exact. *)
let charge_budget t =
  let b = t.budget in
  let l = 1 + Atomic.fetch_and_add b.b_live 1 in
  if b.limit >= 0 && l > b.limit then begin
    ignore (Atomic.fetch_and_add b.b_live (-1));
    raise
      (Out_of_memory
         (Printf.sprintf "%s: %d live records exceed heap budget of %d" t.name
            l b.limit))
  end

let uncharge_budget t = ignore (Atomic.fetch_and_add t.budget.b_live (-1))

(* Sets the slot's allocated bit and returns the pointer to its current
   generation. *)
let mark_allocated t slot =
  let i = header_index t slot in
  let gen = header_gen t.rows.(i) in
  t.rows.(i) <- header ~gen ~allocated:true;
  Ptr.make ~arena:t.heap_id ~slot ~gen

let claim_fresh ctx t =
  Runtime.Ctx.work ctx 2;
  charge_budget t;
  let slot = Atomic.fetch_and_add t.bump 1 in
  if slot >= t.capacity then begin
    uncharge_budget t;
    raise (Arena_full t.name)
  end;
  let p = mark_allocated t slot in
  note_alloc t ctx;
  if listening t then emit t ctx (Smr_event.Alloc p);
  p

let claim_recycled ctx t =
  Runtime.Ctx.work ctx 2;
  let rec pop () =
    let head = Atomic.get t.free_head in
    if head < 0 then None
    else
      let next = t.free_next.(head) in
      if Atomic.compare_and_set t.free_head head next then Some head
      else pop ()
  in
  match pop () with
  | None -> None
  | Some slot ->
      (match charge_budget t with
      | () -> ()
      | exception e ->
          (* Put the slot back before surfacing the failure. *)
          let rec push () =
            let head = Atomic.get t.free_head in
            t.free_next.(slot) <- head;
            if not (Atomic.compare_and_set t.free_head head slot) then push ()
          in
          push ();
          raise e);
      let p = mark_allocated t slot in
      note_alloc t ctx;
      if listening t then emit t ctx (Smr_event.Alloc p);
      Some p

let release ctx t p ~recycle =
  Runtime.Ctx.work ctx 2;
  (* Emitted before validation so a shadow checker can classify the free
     (double free, premature free) even when the arena itself raises. *)
  if listening t then emit t ctx (Smr_event.Free p);
  if not (is_valid t p) then raise (Double_free (describe t p));
  let slot = Ptr.slot p in
  let i = header_index t slot in
  t.rows.(i) <- header ~gen:(header_gen t.rows.(i) + 1) ~allocated:false;
  ctx.Runtime.Ctx.stats.Runtime.Ctx.frees <-
    ctx.Runtime.Ctx.stats.Runtime.Ctx.frees + 1;
  ignore (Atomic.fetch_and_add t.frees 1);
  ignore (Atomic.fetch_and_add t.live (-1));
  uncharge_budget t;
  if recycle then begin
    let rec push () =
      let head = Atomic.get t.free_head in
      t.free_next.(slot) <- head;
      if not (Atomic.compare_and_set t.free_head head slot) then push ()
    in
    push ()
  end

let[@inline] mut_index t p f =
  assert (f >= 0 && f < t.mut_fields);
  header_index t (Ptr.slot p) + 1 + f

let[@inline] const_index t p f =
  assert (f >= 0 && f < t.const_fields);
  header_index t (Ptr.slot p) + 1 + t.mut_fields + f

let[@inline never] bad_cell t i =
  invalid_arg (Printf.sprintf "Arena %s: word %d outside the arena" t.name i)

(* The bounds check that the atomic stubs leave out. *)
let[@inline] cell t i =
  if i < 0 || i >= Array.length t.rows then bad_cell t i;
  i

let[@inline] read ctx t p f =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Read;
  access_event t ctx p Smr_event.Read;
  validate t p;
  atomic_load t.rows (cell t (mut_index t p f))

let[@inline] write ctx t p f v =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Write;
  access_event t ctx p Smr_event.Write;
  validate t p;
  atomic_store t.rows (cell t (mut_index t p f)) v

let[@inline] cas ctx t p f ~expect v =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Cas;
  access_event t ctx p Smr_event.Cas;
  validate t p;
  atomic_cas t.rows (cell t (mut_index t p f)) expect v

let[@inline] get_const ctx t p f =
  Runtime.Ctx.access ctx
    ~line:(line_of t (Ptr.slot p) (t.mut_fields + f))
    Runtime.Ctx.Read;
  access_event t ctx p Smr_event.Read;
  validate t p;
  t.rows.(const_index t p f)

let[@inline] set_const ctx t p f v =
  Runtime.Ctx.access ctx
    ~line:(line_of t (Ptr.slot p) (t.mut_fields + f))
    Runtime.Ctx.Write;
  access_event t ctx p Smr_event.Write;
  validate t p;
  t.rows.(const_index t p f) <- v

let peek t p f = atomic_load t.rows (cell t (mut_index t p f))
let poke t p f v = atomic_store t.rows (cell t (mut_index t p f)) v
let peek_const t p f = t.rows.(const_index t p f)

let budget t = t.budget
let live_records t = Atomic.get t.live
let peak_live t = Atomic.get t.peak
let fresh_claims t = Atomic.get t.bump
let total_allocs t = Atomic.get t.allocs
let total_frees t = Atomic.get t.frees
let bytes_claimed t = fresh_claims t * record_bytes t
let bytes_peak t = peak_live t * record_bytes t
