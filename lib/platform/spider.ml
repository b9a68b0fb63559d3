type t = { legs_ : Chain.t array }

type address = { leg : int; depth : int }

let make legs_ =
  if Array.length legs_ = 0 then invalid_arg "Spider.make: no legs";
  { legs_ = Array.copy legs_ }

let of_legs legs = make (Array.of_list legs)

let legs t = Array.length t.legs_

let leg_chain t l =
  if l < 1 || l > legs t then
    invalid_arg (Printf.sprintf "Spider.leg_chain: leg %d outside 1..%d" l (legs t));
  t.legs_.(l - 1)

let processor_count t =
  Array.fold_left (fun acc chain -> acc + Chain.length chain) 0 t.legs_

let addresses t =
  List.concat_map
    (fun l ->
      let chain = leg_chain t l in
      List.init (Chain.length chain) (fun i -> { leg = l; depth = i + 1 }))
    (List.init (legs t) (fun i -> i + 1))


let work t { leg; depth } = Chain.work (leg_chain t leg) depth

let scale ?latency_factor ?work_factor t { leg; depth } =
  let chain = leg_chain t leg in
  make
    (Array.mapi
       (fun lidx c ->
         if lidx + 1 = leg then Chain.scale ?latency_factor ?work_factor chain ~at:depth
         else c)
       t.legs_)

let restrict t ~depths =
  if Array.length depths <> legs t then
    invalid_arg "Spider.restrict: one prefix length per leg required";
  Array.iteri
    (fun lidx d ->
      let len = Chain.length t.legs_.(lidx) in
      if d < 0 || d > len then
        invalid_arg
          (Printf.sprintf "Spider.restrict: leg %d prefix %d outside 0..%d"
             (lidx + 1) d len))
    depths;
  let kept =
    List.filter_map
      (fun lidx ->
        if depths.(lidx) = 0 then None
        else Some (Chain.prefix t.legs_.(lidx) depths.(lidx), lidx + 1))
      (List.init (legs t) Fun.id)
  in
  match kept with
  | [] -> None
  | _ ->
      Some
        ( make (Array.of_list (List.map fst kept)),
          Array.of_list (List.map snd kept) )

let of_chain chain = make [| chain |]

let of_fork fork = make (Fork.as_chains fork)

let equal a b =
  legs a = legs b
  && Array.for_all2 Chain.equal a.legs_ b.legs_

let to_string t =
  Format.asprintf "spider{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Chain.pp)
    (Array.to_list t.legs_)
