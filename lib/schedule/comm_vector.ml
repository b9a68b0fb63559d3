type t = int array

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec loop j =
    if j < n then
      if a.(j) < b.(j) then -1
      else if a.(j) > b.(j) then 1
      else loop (j + 1)
    else Int.compare lb la (* equal common prefix: the longer vector is smaller *)
  in
  loop 0

let precedes a b = compare a b < 0

let shift d v = Array.map (fun x -> x - d) v

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    (Array.to_list v)

let to_string v = Format.asprintf "%a" pp v
