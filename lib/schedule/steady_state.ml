module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider
module Tree = Msts_platform.Tree

(* Fractional knapsack over one unit port: [children] are (link latency,
   rate cap) pairs; a unit of rate to a child behind link [c] uses [c] of
   the port.  Children are served by ascending latency, ties in input
   order, and the total is summed in that same order.  Returns the total
   and each child's share, in input order. *)
let share_port children =
  let children = Array.of_list children in
  let order = Array.init (Array.length children) Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare (fst children.(a)) (fst children.(b)))
    order;
  let shares = Array.make (Array.length children) 0.0 in
  let total = ref 0.0 and port_left = ref 1.0 in
  Array.iter
    (fun i ->
      let latency, cap = children.(i) in
      let c = float_of_int latency in
      let rate = min cap (!port_left /. c) in
      shares.(i) <- rate;
      total := !total +. rate;
      port_left := !port_left -. (rate *. c))
    order;
  (!total, shares)

(* The rate of the subtree hanging from [v]. *)
let rec node_rate (v : Tree.node) =
  let port, _ = share_port (children_rates v.Tree.children) in
  min
    (1.0 /. float_of_int v.Tree.latency)
    ((1.0 /. float_of_int v.Tree.work) +. port)

and children_rates children =
  List.map (fun (c : Tree.node) -> (c.Tree.latency, node_rate c)) children

let master_port tree = share_port (children_rates (Tree.roots tree))

let tree_throughput tree = fst (master_port tree)

let spider_throughput spider = tree_throughput (Tree.of_spider spider)
let spider_leg_rates spider = snd (master_port (Tree.of_spider spider))
let chain_throughput chain = spider_throughput (Spider.of_chain chain)
