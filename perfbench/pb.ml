(* Shared helpers: clocks, order statistics, metric output. *)

(* Monotonic wall clock, ns. *)
external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

(* CPU time of the calling thread (domain), ns: excludes the time the
   domain was descheduled (see pb_clock.c). *)
external cpu_ns : unit -> (int[@untagged]) = "pb_cpu_ns_byte" "pb_cpu_ns"
[@@noalloc]

let sorted_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p]% of the samples at or below it. *)
let rank_index n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1))

let percentile_sorted (a : float array) p =
  if Array.length a = 0 then 0. else a.(rank_index (Array.length a) p)

let median a = percentile_sorted (sorted_floats a) 50.

(* Interquartile range as a share of the median: the spread figure every
   repeated measurement reports beside its median. *)
let spread a =
  let s = sorted_floats a in
  let m = percentile_sorted s 50. in
  if m = 0. then 0.
  else (percentile_sorted s 75. -. percentile_sorted s 25.) /. m

(* The highest percentile of the ladder with at least ten samples beyond
   it, so a tail figure is never one or two outliers. *)
let tail_ladder = [ 99.99; 99.9; 99.5; 99.; 95.; 90.; 50. ]

let tail_sorted (a : float array) =
  let n = Array.length a in
  let p =
    match List.find_opt (fun p -> n - 1 - rank_index n p >= 10) tail_ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile_sorted a p)

let fsum a = Array.fold_left ( +. ) 0. a

(* Metrics accumulate here in emission order; [print_human] shows them with
   their units and [json] is the benchmark's last output line. *)
type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let add name unit_ value = metrics := { name; value; unit_ } :: !metrics
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json () =
  List.rev !metrics
  |> List.map (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_float m.value) (json_string m.unit_))
  |> String.concat ", "
