(* In-memory spans for the traced run.

   Each domain records into its own store (no synchronisation on the hot
   path); stores are summarised after the domains join.  A span has a
   name, start and end on the monotonic clock, and the id of the span
   that caused it.  Ids are [store tag * 2^32 + index], so a parent may live in another
   store (a structure operation recorded by a worker, its rep span by the
   main domain). *)

type store = {
  tag : int;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
}

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list : string list ref = ref []

(* Interning happens on the main domain before workers start. *)
let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_list := s :: !name_list;
      i

let no_parent = -1
let stores : store list ref = ref []

let create_store ?(cap = 1024) () =
  let st =
    {
      tag = List.length !stores;
      len = 0;
      name = Array.make cap 0;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      parent = Array.make cap 0;
    }
  in
  stores := st :: !stores;
  st

let grow st =
  let cap = 2 * Array.length st.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 st.len;
    b
  in
  st.name <- g st.name;
  st.start <- g st.start;
  st.stop <- g st.stop;
  st.parent <- g st.parent

let id st i = (st.tag lsl 32) lor i

(* Claim the next slot and fill all of it but its end. *)
let open_slot st ~name ~parent start =
  if st.len = Array.length st.name then grow st;
  let i = st.len in
  st.name.(i) <- name;
  st.start.(i) <- start;
  st.parent.(i) <- parent;
  st.len <- i + 1;
  i

let record st ~name ~parent start stop =
  let i = open_slot st ~name ~parent start in
  st.stop.(i) <- stop;
  id st i

(* Open a span now and close it when [f] returns; [f] gets the span's id
   to pass as the parent of the spans it causes. *)
let main = lazy (create_store ())

let with_span ?(parent = no_parent) name f =
  let st = Lazy.force main in
  let i = open_slot st ~name:(intern name) ~parent (Pb.now_ns ()) in
  let finally () = st.stop.(i) <- Pb.now_ns () in
  Fun.protect ~finally (fun () -> f (id st i))

(* Durations (ns) of every span with this name, over all stores. *)
let durations name =
  match Hashtbl.find_opt names name with
  | None -> [||]
  | Some nm ->
      List.concat_map
        (fun st ->
          List.init st.len (fun i ->
              if st.name.(i) = nm then Some (float (st.stop.(i) - st.start.(i)))
              else None)
          |> List.filter_map Fun.id)
        !stores
      |> Array.of_list

type summary = {
  s_name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  p50_ns : float;
  p99_ns : float;
}

(* Per-name totals; a span's self time is its duration minus the time its
   child spans cover. *)
let summaries () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun st ->
      for i = 0 to st.len - 1 do
        let p = st.parent.(i) in
        if p <> no_parent then
          Hashtbl.replace child p
            (st.stop.(i) - st.start.(i)
            + Option.value ~default:0 (Hashtbl.find_opt child p))
      done)
    !stores;
  List.rev !name_list
  |> List.map (fun name ->
         let nm = Hashtbl.find names name in
         let durs = ref [] and self = ref 0. in
         List.iter
           (fun st ->
             for i = 0 to st.len - 1 do
               if st.name.(i) = nm then begin
                 let d = st.stop.(i) - st.start.(i) in
                 durs := float d :: !durs;
                 let c =
                   Option.value ~default:0 (Hashtbl.find_opt child (id st i))
                 in
                 self := !self +. float (d - c)
               end
             done)
           !stores;
         let s = Pb.sorted_floats (Array.of_list !durs) in
         {
           s_name = name;
           count = Array.length s;
           total_ns = Pb.fsum s;
           self_ns = !self;
           p50_ns = Pb.percentile_sorted s 50.;
           p99_ns = Pb.percentile_sorted s 99.;
         })
