(** The full protocheck matrix: 4 structures x every scheme of the
    {!Reclaim.Registry}, in registry order and under the registry's
    allocator/pool pairings — the ones the benchmark runs. *)

let structures = [ Report.List; Report.Bst; Report.Queue; Report.Skiplist ]

let checks =
  List.map
    (fun e ->
      let module RM = (val e.Reclaim.Registry.rm) in
      let module C = Cell.Make (RM) in
      C.check)
    Reclaim.Registry.all

let check_structure s = List.map (fun check -> check s) checks
let all () = List.concat_map check_structure structures
