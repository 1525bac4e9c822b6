type t = {
  mutable keys : int array;
  mutable stamp : int array;
  mutable mask : int;
  mutable epoch : int;
  mutable population : int;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~expected =
  let cap = pow2 (max 8 (4 * expected)) 8 in
  {
    keys = Array.make cap 0;
    stamp = Array.make cap 0;
    mask = cap - 1;
    epoch = 1;
    population = 0;
  }

(* Fibonacci hashing of the pointer bits. *)
let hash t k = (k * 0x2545F4914F6CDD1D) land max_int land t.mask

let grow t =
  let old_keys = t.keys and old_stamp = t.stamp and old_epoch = t.epoch in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap 0;
  t.stamp <- Array.make cap 0;
  t.mask <- cap - 1;
  t.epoch <- 1;
  t.population <- 0;
  Array.iteri
    (fun i s ->
      if s = old_epoch then
        let rec put j =
          if t.stamp.(j) = t.epoch then put ((j + 1) land t.mask)
          else begin
            t.keys.(j) <- old_keys.(i);
            t.stamp.(j) <- t.epoch;
            t.population <- t.population + 1
          end
        in
        put (hash t old_keys.(i)))
    old_stamp

(* The probe loops are top-level functions with explicit arguments, not
   closures over [t] and [k]: a reclaimer's scan calls [mem] once per
   limbo record and must not allocate for it. *)
let rec insert_at t k i =
  if t.stamp.(i) <> t.epoch then begin
    t.keys.(i) <- k;
    t.stamp.(i) <- t.epoch;
    t.population <- t.population + 1
  end
  else if t.keys.(i) <> k then insert_at t k ((i + 1) land t.mask)

let insert t k =
  if 2 * (t.population + 1) > t.mask then grow t;
  insert_at t k (hash t k)

let rec mem_at t k i =
  if t.stamp.(i) <> t.epoch then false
  else if t.keys.(i) = k then true
  else mem_at t k ((i + 1) land t.mask)

let mem t k = mem_at t k (hash t k)

let clear t =
  t.epoch <- t.epoch + 1;
  t.population <- 0

let population t = t.population
