type t = {
  c : int array; (* c.(k-1) = latency of link into processor k *)
  w : int array; (* w.(k-1) = work time of processor k *)
  cumulative_c : int array; (* cumulative_c.(k-1) = c_1 + ... + c_k *)
}

let make ~c ~w =
  let p = Array.length c in
  if p = 0 then invalid_arg "Msts.Chain.make: empty chain";
  if Array.length w <> p then invalid_arg "Msts.Chain.make: c/w length mismatch";
  Array.iter
    (fun x -> if x <= 0 then invalid_arg "Msts.Chain.make: non-positive latency")
    c;
  Array.iter
    (fun x -> if x <= 0 then invalid_arg "Msts.Chain.make: non-positive work time")
    w;
  let cumulative_c = Array.make p c.(0) in
  for k = 1 to p - 1 do
    cumulative_c.(k) <- cumulative_c.(k - 1) + c.(k)
  done;
  { c = Array.copy c; w = Array.copy w; cumulative_c }

let of_pairs pairs =
  let c = Array.of_list (List.map fst pairs) in
  let w = Array.of_list (List.map snd pairs) in
  make ~c ~w

let length t = Array.length t.c

let check_index t k name =
  if k < 1 || k > length t then
    invalid_arg (Printf.sprintf "Msts.Chain.%s: processor %d outside 1..%d" name k (length t))

let latency t k =
  check_index t k "latency";
  t.c.(k - 1)

let work t k =
  check_index t k "work";
  t.w.(k - 1)

let path_latency t k =
  check_index t k "path_latency";
  t.cumulative_c.(k - 1)

let drop_first t =
  if length t < 2 then invalid_arg "Msts.Chain.drop_first: chain of length 1";
  make ~c:(Array.sub t.c 1 (length t - 1)) ~w:(Array.sub t.w 1 (length t - 1))

let prefix t k =
  check_index t k "prefix";
  make ~c:(Array.sub t.c 0 k) ~w:(Array.sub t.w 0 k)

let to_pairs t = List.init (length t) (fun i -> (t.c.(i), t.w.(i)))

let scale ?(latency_factor = 1) ?(work_factor = 1) t ~at =
  check_index t at "scale";
  if latency_factor < 1 then invalid_arg "Msts.Chain.scale: latency_factor must be >= 1";
  if work_factor < 1 then invalid_arg "Msts.Chain.scale: work_factor must be >= 1";
  let c = Array.copy t.c and w = Array.copy t.w in
  c.(at - 1) <- c.(at - 1) * latency_factor;
  w.(at - 1) <- w.(at - 1) * work_factor;
  make ~c ~w

let equal a b = a.c = b.c && a.w = b.w

let pp ppf t =
  let pair ppf (c, w) = Format.fprintf ppf "(c=%d,w=%d)" c w in
  Format.fprintf ppf "chain[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pair)
    (to_pairs t)

let to_string t = Format.asprintf "%a" pp t

let master_only_makespan t n =
  if n < 0 then invalid_arg "Msts.Chain.master_only_makespan: negative n";
  if n = 0 then 0
  else t.c.(0) + ((n - 1) * max t.w.(0) t.c.(0)) + t.w.(0)

