type node = { latency : int; work : int; children : node list }

type t = { roots_ : node list }

let rec validate_node n =
  if n.latency <= 0 then invalid_arg "Tree: non-positive latency";
  if n.work <= 0 then invalid_arg "Tree: non-positive work";
  List.iter validate_node n.children

let make roots_ =
  if roots_ = [] then invalid_arg "Tree.make: empty tree";
  List.iter validate_node roots_;
  { roots_ }

let roots t = t.roots_

let node ?(children = []) ~latency ~work () =
  let n = { latency; work; children } in
  validate_node n;
  n

let rec node_count n = 1 + List.fold_left (fun acc child -> acc + node_count child) 0 n.children

let processor_count t = List.fold_left (fun acc n -> acc + node_count n) 0 t.roots_

let rec node_depth n =
  1 + List.fold_left (fun acc child -> max acc (node_depth child)) 0 n.children

let depth t = List.fold_left (fun acc n -> max acc (node_depth n)) 0 t.roots_

let rec node_is_path n =
  match n.children with
  | [] -> true
  | [ child ] -> node_is_path child
  | _ :: _ :: _ -> false

let is_spider t = List.for_all node_is_path t.roots_

let path_to_chain n =
  let rec collect n acc =
    let acc = (n.latency, n.work) :: acc in
    match n.children with
    | [] -> List.rev acc
    | [ child ] -> collect child acc
    | _ :: _ :: _ -> assert false
  in
  Chain.of_pairs (collect n [])

let to_spider t =
  if is_spider t then Some (Spider.of_legs (List.map path_to_chain t.roots_))
  else None

let of_spider spider =
  let leg l =
    List.fold_right
      (fun (latency, work) children -> [ { latency; work; children } ])
      (Chain.to_pairs (Spider.leg_chain spider l))
      []
  in
  {
    roots_ = List.concat_map leg (List.init (Spider.legs spider) (fun l -> l + 1));
  }

type extraction_policy = Fastest_processor | Cheapest_link | Best_rate

let rec subtree_rate n =
  (1.0 /. float_of_int n.work)
  +. List.fold_left (fun acc child -> acc +. subtree_rate child) 0.0 n.children

let pick policy children =
  let better a b =
    match policy with
    | Fastest_processor -> if b.work < a.work then b else a
    | Cheapest_link -> if b.latency < a.latency then b else a
    | Best_rate -> if subtree_rate b > subtree_rate a then b else a
  in
  match children with
  | [] -> None
  | first :: rest -> Some (List.fold_left better first rest)

let extract_spider policy t =
  let rec leg n acc =
    let acc = (n.latency, n.work) :: acc in
    match pick policy n.children with
    | None -> List.rev acc
    | Some child -> leg child acc
  in
  Spider.of_legs (List.map (fun n -> Chain.of_pairs (leg n [])) t.roots_)

let rec pp_node ppf n =
  if n.children = [] then Format.fprintf ppf "(c=%d,w=%d)" n.latency n.work
  else
    Format.fprintf ppf "(c=%d,w=%d -> %a)" n.latency n.work
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_node)
      n.children

let to_string t =
  Format.asprintf "tree{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_node)
    t.roots_
