(* Ablation studies for the design decisions called out in DESIGN.md §5.

   1. Definition 3's order: what happens to optimality if the candidate
      selection rule is changed?  (The backward construction stays feasible
      for any rule; only the paper's rule is optimal.)
   2. Backward vs forward construction: the best myopic forward rule
      (earliest completion) against the backward optimum. *)

let selector_def3 = Msts.Chain_algorithm.select

(* Flip only the prefix tie-break of Definition 3: on an equal common
   prefix prefer the LONGER vector (the farther processor). *)
let selector_longer_ties cands =
  let compare_flipped a b =
    let la = Array.length a and lb = Array.length b in
    let n = min la lb in
    let rec loop j =
      if j < n then
        if a.(j) < b.(j) then -1
        else if a.(j) > b.(j) then 1
        else loop (j + 1)
      else Int.compare la lb
    in
    loop 0
  in
  let best = ref 0 in
  for idx = 1 to Array.length cands - 1 do
    if compare_flipped cands.(!best) cands.(idx) < 0 then best := idx
  done;
  !best

(* Always route to the nearest processor (degenerates to master-only). *)
let selector_nearest _ = 0

(* Minimise instead of maximise Definition 3's order. *)
let selector_smallest cands =
  let best = ref 0 in
  for idx = 1 to Array.length cands - 1 do
    if Msts.Comm_vector.precedes cands.(idx) cands.(!best) then best := idx
  done;
  !best

let selectors =
  [
    ("Def.3 max (paper)", selector_def3);
    ("ties -> farther proc", selector_longer_ties);
    ("always nearest", selector_nearest);
    ("Def.3 min", selector_smallest);
  ]

let order_ablation () =
  let rng = Msts.Prng.create 424242 in
  let trials = 80 in
  let instances =
    List.init trials (fun _ ->
        let p = 2 + Msts.Prng.int rng 4 in
        ( Msts.Generator.chain rng Msts.Generator.default_profile ~p,
          10 + Msts.Prng.int rng 30 ))
  in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "ablation: candidate selection rule (%d random chains, p in 2..5, \
            n in 10..39)"
           trials)
      ~columns:[ "selection rule"; "mean ratio vs optimal"; "max ratio"; "optimal %" ]
  in
  List.iter
    (fun (name, select) ->
      let ratios =
        Array.of_list
          (List.map
             (fun (chain, n) ->
               let sched =
                 Msts.Chain_algorithm.schedule_with_selector ~select chain n
               in
               assert (Msts.Plan.check ~require_nonnegative:true (Msts.Plan.Chain sched) = []);
               float_of_int (Msts.Schedule.makespan sched)
               /. float_of_int (Msts.Chain_algorithm.makespan chain n))
             instances)
      in
      let optimal_count =
        Array.fold_left (fun acc r -> if r < 1.0000001 then acc + 1 else acc) 0 ratios
      in
      let optimal_pct = 100.0 *. float_of_int optimal_count /. float_of_int trials in
      let _, max_ratio = Msts.Stats.min_max ratios in
      Msts.Table.add_row table
        [
          name;
          Printf.sprintf "%.4f" (Msts.Stats.mean ratios);
          Printf.sprintf "%.4f" max_ratio;
          Printf.sprintf "%.0f%%" optimal_pct;
        ])
    selectors;
  Msts.Table.print table;
  print_endline
    "  (any selection rule yields a feasible schedule; only Definition 3's"
  ;
  print_endline "   maximum is always optimal)"

let forward_ablation () =
  let rng = Msts.Prng.create 515151 in
  let trials = 80 in
  let table =
    Msts.Table.create
      ~title:
        "ablation: backward (paper) vs best forward rule (earliest completion)"
      ~columns:[ "profile"; "forward/backward mean"; "max"; "forward optimal %" ]
  in
  List.iter
    (fun (name, profile) ->
      let ratios = Array.make trials 0.0 in
      let optimal = ref 0 in
      for t = 0 to trials - 1 do
        let p = 2 + Msts.Prng.int rng 4 in
        let n = 10 + Msts.Prng.int rng 30 in
        let chain = Msts.Generator.chain rng profile ~p in
        let fwd =
          Msts.Tree_heuristics.(makespan Earliest_completion)
            (Msts.Tree.of_spider (Msts.Spider.of_chain chain))
            n
        in
        let bwd = Msts.Chain_algorithm.makespan chain n in
        ratios.(t) <- float_of_int fwd /. float_of_int bwd;
        if fwd = bwd then incr optimal
      done;
      let _, max_ratio = Msts.Stats.min_max ratios in
      Msts.Table.add_row table
        [
          name;
          Printf.sprintf "%.4f" (Msts.Stats.mean ratios);
          Printf.sprintf "%.4f" max_ratio;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int !optimal /. float_of_int trials);
        ])
    [
      ("default", Msts.Generator.default_profile);
      ("compute-bound", Msts.Generator.compute_bound_profile);
      ("comm-bound", Msts.Generator.comm_bound_profile);
    ];
  Msts.Table.print table

let tree_extraction () =
  let rng = Msts.Prng.create 606060 in
  let trials = 40 in
  let n = 20 in
  let policies =
    [
      ("fastest processor", Msts.Tree.Fastest_processor);
      ("cheapest link", Msts.Tree.Cheapest_link);
      ("best subtree rate", Msts.Tree.Best_rate);
    ]
  in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "extension: spider-cover heuristics for general trees (%d random \
            trees, 10 nodes, n=%d) -- mean makespan ratio vs best of the three"
           trials n)
      ~columns:("tree policy" :: [ "mean ratio"; "wins" ])
  in
  let makespans =
    List.init trials (fun _ ->
        let tree =
          Msts.Generator.tree rng Msts.Generator.default_profile ~nodes:10
            ~max_children:3
        in
        List.map
          (fun (_, policy) ->
            Msts.Spider_algorithm.min_makespan
              (Msts.Tree.extract_spider policy tree)
              n)
          policies)
  in
  List.iteri
    (fun i (name, _) ->
      let ratios =
        Array.of_list
          (List.map
             (fun row ->
               let best = List.fold_left min max_int row in
               float_of_int (List.nth row i) /. float_of_int best)
             makespans)
      in
      let wins =
        List.length
          (List.filter
             (fun row -> List.nth row i = List.fold_left min max_int row)
             makespans)
      in
      Msts.Table.add_row table
        [ name; Printf.sprintf "%.4f" (Msts.Stats.mean ratios); string_of_int wins ])
    policies;
  Msts.Table.print table;
  print_endline
    "  (the conclusion's future-work direction: cover general graphs with"
  ;
  print_endline "   simpler structures, then schedule those optimally)"

let tree_frontier () =
  let rng = Msts.Prng.create 717171 in
  let trials = 40 in
  let n = 5 in
  let ratios_cover = Array.make trials 0.0 in
  let ratios_forward = Array.make trials 0.0 in
  let ratios_lb = Array.make trials 0.0 in
  let cover_matches = ref 0 in
  for t = 0 to trials - 1 do
    let tree =
      Msts.Generator.tree rng Msts.Generator.balanced_profile ~nodes:4
        ~max_children:3
    in
    let exact = Msts.Tree_search.best_fifo_makespan tree n in
    let _, cover = Msts.Tree_heuristics.best_cover tree n in
    let forward = Msts.Tree_heuristics.(makespan Earliest_completion) tree n in
    let lb = Msts.Tree_search.lower_bound tree n in
    (* the search is the least FIFO makespan over the whole tree; on the
       cover's spider FIFO schedules reach the optimum (Theorem 3), so no
       cover beats it *)
    assert (lb <= exact && exact <= cover && exact <= forward);
    let ratio m = float_of_int m /. float_of_int exact in
    ratios_cover.(t) <- ratio cover;
    ratios_forward.(t) <- ratio forward;
    ratios_lb.(t) <- ratio lb;
    if cover = exact then incr cover_matches
  done;
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "tree frontier: vs exhaustive FIFO search (%d random 4-node trees, \
            n=%d)"
           trials n)
      ~columns:[ "method"; "mean ratio"; "max ratio" ]
  in
  let row name ratios =
    let _, hi = Msts.Stats.min_max ratios in
    Msts.Table.add_row table
      [ name; Printf.sprintf "%.4f" (Msts.Stats.mean ratios); Printf.sprintf "%.4f" hi ]
  in
  row "best spider cover" ratios_cover;
  row "forward greedy (whole tree)" ratios_forward;
  row "lower bound" ratios_lb;
  Msts.Table.print table;
  Printf.printf "  spider cover already exact on %d/%d of these trees\n"
    !cover_matches trials

let local_search () =
  let rng = Msts.Prng.create 97531 in
  let trials = 40 in
  let n = 40 and p = 6 in
  let ect = Array.make trials 0.0
  and climb = Array.make trials 0.0
  and restarts = Array.make trials 0.0
  and evals = Array.make trials 0.0 in
  for t = 0 to trials - 1 do
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    let opt = float_of_int (Msts.Chain_algorithm.makespan chain n) in
    let report = Msts.Local_search.hill_climb ~seed:t chain n in
    ect.(t) <- float_of_int report.Msts.Local_search.start_makespan /. opt;
    climb.(t) <-
      float_of_int (Msts.Schedule.makespan report.Msts.Local_search.schedule) /. opt;
    evals.(t) <- float_of_int report.Msts.Local_search.evaluations;
    (* give random restarts the same evaluation budget the climber used *)
    restarts.(t) <-
      float_of_int
        (Msts.Schedule.makespan
           (Msts.Local_search.random_restarts ~seed:t
              ~restarts:report.Msts.Local_search.evaluations chain n))
      /. opt
  done;
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "could a generic optimiser replace the paper? (%d random chains, \
            p=%d, n=%d; ratios vs optimal)"
           trials p n)
      ~columns:[ "method"; "mean ratio"; "max ratio" ]
  in
  let row name ratios =
    let _, hi = Msts.Stats.min_max ratios in
    Msts.Table.add_row table
      [ name; Printf.sprintf "%.4f" (Msts.Stats.mean ratios); Printf.sprintf "%.4f" hi ]
  in
  row "greedy ECT (start)" ect;
  row "hill climbing" climb;
  row "random restarts, same budget" restarts;
  Msts.Table.print table;
  Printf.printf
    "  mean ASAP evaluations spent by the climber: %.0f (each O(n*p));\n"
    (Msts.Stats.mean evals);
  print_endline
    "  the exact algorithm costs a single O(n*p^2) pass and is always 1.0000"

let all : (string * string * (unit -> unit)) list =
  [
    ("ablation-order", "candidate selection rule ablation", order_ablation);
    ("ablation-forward", "backward vs forward construction", forward_ablation);
    ("tree-cover", "tree -> spider cover heuristics", tree_extraction);
    ("tree-frontier", "covers vs exhaustive FIFO search on tiny trees", tree_frontier);
    ("local-search", "generic optimisers vs the exact algorithm", local_search);
  ]
