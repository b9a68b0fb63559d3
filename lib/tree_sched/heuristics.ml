module Tree = Msts_platform.Tree
module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider
module Prng = Msts_util.Prng
module Columns = Msts_schedule.Columns

type policy =
  | Earliest_completion
  | Round_robin
  | First_node
  | Fastest_processor
  | Random of int

let chain_policies =
  [
    ("earliest-completion", Earliest_completion);
    ("round-robin", Round_robin);
    ("master-only", First_node);
    ("fastest-processor", Fastest_processor);
    ("random(0)", Random 0);
  ]

let spider_policies =
  [
    ("earliest-completion", Earliest_completion);
    ("round-robin", Round_robin);
    ("first-leg", First_node);
    ("random(0)", Random 0);
  ]

let tree_policies =
  [
    ("earliest-completion", Earliest_completion);
    ("random(0)", Random 0);
    ("root-only", First_node);
  ]

let schedule policy tree n =
  if n < 0 then invalid_arg "Heuristics.schedule: negative task count";
  let flat = Flat.of_tree tree in
  let count = Flat.node_count flat in
  let work dest = (Flat.info flat dest).Flat.work in
  (* one-step lookahead on a state snapshot *)
  let hops = Asap.hops flat in
  let completion_if st dest =
    Asap.push (Asap.copy st) ~dest ~emissions:hops ~pos:0 + work dest
  in
  let choose =
    match policy with
    | Earliest_completion ->
        fun st ->
          let best = ref 1 and best_time = ref (completion_if st 1) in
          for dest = 2 to count do
            let t = completion_if st dest in
            if t < !best_time then begin
              best := dest;
              best_time := t
            end
          done;
          !best
    | Round_robin ->
        let rr = ref 0 in
        fun _ ->
          let dest = (!rr mod count) + 1 in
          incr rr;
          dest
    | First_node -> fun _ -> 1
    | Fastest_processor ->
        let fastest =
          Msts_util.Intx.argmin (Array.init count (fun idx -> work (idx + 1))) + 1
        in
        fun _ -> fastest
    | Random seed ->
        let rng = Prng.create seed in
        fun _ -> Prng.int_in rng 1 count
  in
  (* the policy picks the sequence; its ASAP timing is the schedule *)
  let st = Asap.start flat in
  let seq =
    Array.init n (fun _ ->
        let dest = choose st in
        ignore (Asap.push st ~dest ~emissions:hops ~pos:0);
        dest)
  in
  Asap.of_sequence flat seq

let makespan policy tree n = Tree_schedule.makespan (schedule policy tree n)

(* ---------- spider cover ---------- *)

(* Re-derive the extraction over the flat view so each spider address maps
   back to a tree node; tests cross-check the resulting spider against
   Msts_platform.Tree.extract_spider. *)
let rec subtree_rate flat id =
  (1.0 /. float_of_int (Flat.info flat id).Flat.work)
  +. List.fold_left
       (fun acc child -> acc +. subtree_rate flat child)
       0.0 (Flat.children flat id)

let pick policy flat ids =
  let better a b =
    match policy with
    | Tree.Fastest_processor ->
        if (Flat.info flat b).Flat.work < (Flat.info flat a).Flat.work then b else a
    | Tree.Cheapest_link ->
        if (Flat.info flat b).Flat.latency < (Flat.info flat a).Flat.latency then b
        else a
    | Tree.Best_rate -> if subtree_rate flat b > subtree_rate flat a then b else a
  in
  match ids with [] -> None | first :: rest -> Some (List.fold_left better first rest)

let leg_paths policy flat =
  let rec extend id acc =
    let acc = id :: acc in
    match pick policy flat (Flat.children flat id) with
    | None -> List.rev acc
    | Some next -> extend next acc
  in
  List.map (fun root -> extend root []) (Flat.children flat 0)

let spider_cover policy tree n =
  let flat = Flat.of_tree tree in
  let paths = leg_paths policy flat in
  let spider =
    Spider.of_legs
      (List.map
         (fun path ->
           Chain.of_pairs
             (List.map
                (fun id ->
                  let info = Flat.info flat id in
                  (info.Flat.latency, info.Flat.work))
                path))
         paths)
  in
  let plan = Msts_spider.Algorithm.schedule_tasks spider n in
  (* node_of.(leg - 1).(depth - 1): the tree node at that spider address *)
  let node_of = Array.of_list (List.map Array.of_list paths) in
  let c = Msts_schedule.Spider_schedule.columns plan in
  Tree_schedule.of_columns flat
    ~nodes:
      (Array.init (Columns.length c) (fun i ->
           node_of.(Columns.leg c i - 1).(Columns.depth c i - 1)))
    ~starts:c.starts ~offsets:c.offsets ~emissions:c.emissions

let spider_cover_makespan policy tree n =
  Tree_schedule.makespan (spider_cover policy tree n)

let best_cover tree n =
  let candidates =
    List.map
      (fun policy -> (policy, spider_cover_makespan policy tree n))
      [ Tree.Fastest_processor; Tree.Cheapest_link; Tree.Best_rate ]
  in
  List.fold_left
    (fun (bp, bm) (p, m) -> if m < bm then (p, m) else (bp, bm))
    (List.hd candidates) (List.tl candidates)
