module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider
module Tree = Msts_platform.Tree

(* A spider is the tree [Tree.of_spider], a chain the one-leg spider: both
   enumerations are the tree's depth-first search. *)
let spider_makespan spider n =
  Msts_tree.Search.best_fifo_makespan (Tree.of_spider spider) n

let chain_makespan chain n = spider_makespan (Spider.of_chain chain) n

let max_tasks spider ~deadline ~limit =
  if deadline < 0 || limit < 0 then invalid_arg "Brute_force.max_tasks";
  let rec grow m =
    if m >= limit then m
    else if spider_makespan spider (m + 1) <= deadline then grow (m + 1)
    else m
  in
  grow 0

(* ---------- dominance-pruned exact search ----------

   A state after placing some tasks is the vector of resource clocks
   (link_free(1..p), proc_free(1..p)) plus the partial makespan; every
   future completion is a monotone function of these, so a componentwise-
   smaller-or-equal state always leads to an optimum at least as good. *)

let dominates a b =
  let len = Array.length a in
  let rec loop i = i >= len || (a.(i) <= b.(i) && loop (i + 1)) in
  loop 0

(* Pareto-minimal insertion: drop [candidate] if dominated, evict states it
   dominates. *)
let pareto_insert pool candidate =
  if List.exists (fun s -> dominates s candidate) pool then pool
  else candidate :: List.filter (fun s -> not (dominates candidate s)) pool

let chain_makespan_pruned chain n =
  if n < 0 then invalid_arg "Brute_force: negative task count";
  if n = 0 then 0
  else begin
    let p = Chain.length chain in
    (* layout: [0..p-1] link clocks, [p..2p-1] processor clocks,
       [2p] partial makespan *)
    let push state dest =
      let state = Array.copy state in
      let emit = ref state.(0) in
      state.(0) <- !emit + Chain.latency chain 1;
      let arrival = ref (!emit + Chain.latency chain 1) in
      for j = 2 to dest do
        emit := max !arrival state.(j - 1);
        state.(j - 1) <- !emit + Chain.latency chain j;
        arrival := !emit + Chain.latency chain j
      done;
      let start = max !arrival state.(p + dest - 1) in
      let completion = start + Chain.work chain dest in
      state.(p + dest - 1) <- completion;
      state.(2 * p) <- max state.(2 * p) completion;
      state
    in
    let level = ref [ Array.make ((2 * p) + 1) 0 ] in
    for _ = 1 to n do
      let next = ref [] in
      List.iter
        (fun state ->
          for dest = 1 to p do
            next := pareto_insert !next (push state dest)
          done)
        !level;
      level := !next
    done;
    List.fold_left (fun acc state -> min acc state.(2 * p)) max_int !level
  end

