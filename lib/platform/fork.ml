type t = { slaves : (int * int) array }

let make slaves =
  if Array.length slaves = 0 then invalid_arg "Fork.make: no slaves";
  Array.iter
    (fun (c, w) ->
      if c <= 0 || w <= 0 then invalid_arg "Fork.make: non-positive value")
    slaves;
  { slaves = Array.copy slaves }

let of_pairs pairs = make (Array.of_list pairs)

let slave_count t = Array.length t.slaves

let check_index t j =
  if j < 1 || j > slave_count t then
    invalid_arg
      (Printf.sprintf "Fork: slave %d outside 1..%d" j (slave_count t))

let latency t j =
  check_index t j;
  fst t.slaves.(j - 1)

let work t j =
  check_index t j;
  snd t.slaves.(j - 1)

let to_pairs t = Array.to_list t.slaves

let as_chains t =
  Array.map (fun (c, w) -> Chain.make ~c:[| c |] ~w:[| w |]) t.slaves
