(* Tests for the tree extension: flat view, tree ASAP, tree schedules and
   their checker, heuristics, spider-cover pipeline, FIFO search and the
   bandwidth-centric steady state. *)

open Helpers

let leaf ~latency ~work = Msts.Tree.node ~latency ~work ()

(* master -> n1(c=1,w=2) -> { n2(c=2,w=3), n3(c=1,w=4) -> n4(c=3,w=1) },
   master -> n5(c=5,w=6) ; preorder ids 1..5 *)
let sample_tree =
  Msts.Tree.make
    [
      Msts.Tree.node ~latency:1 ~work:2
        ~children:
          [
            leaf ~latency:2 ~work:3;
            Msts.Tree.node ~latency:1 ~work:4
              ~children:[ leaf ~latency:3 ~work:1 ] ();
          ]
        ();
      leaf ~latency:5 ~work:6;
    ]

let tree_gen ?(max_nodes = 8) ?(max_val = 8) () =
  QCheck.Gen.(
    pair small_int (int_range 1 max_nodes) |> map (fun (seed, nodes) ->
        Msts.Generator.tree (Msts.Prng.create seed)
          {
            Msts.Generator.latency_min = 1;
            latency_max = max_val;
            work_min = 1;
            work_max = max_val;
          }
          ~nodes ~max_children:3))

let tree_arb ?max_nodes ?max_val () =
  QCheck.make ~print:Msts.Tree.to_string (tree_gen ?max_nodes ?max_val ())

let tree_with_n_arb ?max_nodes ?(max_n = 8) () =
  QCheck.make
    ~print:(fun (tree, n) -> Printf.sprintf "%s, n=%d" (Msts.Tree.to_string tree) n)
    QCheck.Gen.(pair (tree_gen ?max_nodes ()) (int_range 0 max_n))

(* ---------- Flat ---------- *)

let flat_preorder () =
  let flat = Msts.Tree_flat.of_tree sample_tree in
  Alcotest.(check int) "count" 5 (Msts.Tree_flat.node_count flat);
  let info i = Msts.Tree_flat.info flat i in
  Alcotest.(check int) "n1 parent" 0 (info 1).Msts.Tree_flat.parent;
  Alcotest.(check int) "n2 parent" 1 (info 2).Msts.Tree_flat.parent;
  Alcotest.(check int) "n3 parent" 1 (info 3).Msts.Tree_flat.parent;
  Alcotest.(check int) "n4 parent" 3 (info 4).Msts.Tree_flat.parent;
  Alcotest.(check int) "n5 parent" 0 (info 5).Msts.Tree_flat.parent;
  Alcotest.(check (list int)) "path to n4" [ 1; 3; 4 ] (info 4).Msts.Tree_flat.path;
  Alcotest.(check int) "n4 depth" 3 (info 4).Msts.Tree_flat.depth;
  Alcotest.(check (list int)) "master children" [ 1; 5 ]
    (Msts.Tree_flat.children flat 0);
  Alcotest.(check int) "path latency n4" (1 + 1 + 3)
    (Msts.Tree_flat.path_latency flat 4)

let flat_counts_match =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"flat view has one entry per tree node"
       (tree_arb ~max_nodes:15 ())
       (fun tree ->
         Msts.Tree_flat.node_count (Msts.Tree_flat.of_tree tree)
         = Msts.Tree.processor_count tree))

(* ---------- tree ASAP + checker ---------- *)

let tree_asap_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"tree ASAP sequences are feasible"
       (QCheck.make
          ~print:(fun (tree, _) -> Msts.Tree.to_string tree)
          QCheck.Gen.(
            tree_gen () >>= fun tree ->
            let count = Msts.Tree.processor_count tree in
            map
              (fun dests -> (tree, Array.of_list dests))
              (list_size (int_range 0 10) (int_range 1 count))))
       (fun (tree, seq) ->
         let flat = Msts.Tree_flat.of_tree tree in
         let s = Msts.Asap.of_sequence flat seq in
         match Msts.Tree_schedule.check ~require_nonnegative:true s with
         | [] -> true
         | problems ->
             QCheck.Test.fail_reportf "infeasible: %s" (String.concat "; " problems)))

(* A tree plan written row by row: (node, start, emissions) a task. *)
let tree_plan flat rows =
  let starts = Array.map (fun (_, start, _) -> start) rows in
  let offsets, emissions =
    Schedule_reference.columns starts (Array.map (fun (_, _, comms) -> comms) rows)
  in
  Msts.Tree_schedule.of_columns flat
    ~nodes:(Array.map (fun (node, _, _) -> node) rows)
    ~starts ~offsets ~emissions

let tree_checker_catches_port_conflict () =
  let flat = Msts.Tree_flat.of_tree sample_tree in
  (* two tasks emitted by the master at the same instant *)
  let s =
    tree_plan flat
      [|
        (1, 1, [| 0 |]);
        (5, 5, [| 0 |]);
      |]
  in
  Alcotest.(check bool) "conflict detected" true
    (List.exists
       (fun msg ->
         String.length msg >= 6 && String.sub msg 0 6 = "node 0")
       (Msts.Tree_schedule.check s))

let tree_checker_catches_relay_violation () =
  let flat = Msts.Tree_flat.of_tree sample_tree in
  (* node 1 forwards to node 2 before receiving (c=1 on hop 1) *)
  let s =
    tree_plan flat
      [| (2, 10, [| 0; 0 |]) |]
  in
  Alcotest.(check bool) "relay violation detected" true
    (Msts.Tree_schedule.check s <> [])

let tree_checker_catches_compute_overlap () =
  let flat = Msts.Tree_flat.of_tree sample_tree in
  let s =
    tree_plan flat
      [|
        (1, 1, [| 0 |]);
        (1, 2, [| 1 |]);
      |]
  in
  Alcotest.(check bool) "overlap detected" true
    (List.exists
       (fun msg ->
         String.length msg >= 5 && String.sub msg 0 5 = "tasks")
       (Msts.Tree_schedule.check s))

let tree_schedule_structure () =
  let flat = Msts.Tree_flat.of_tree sample_tree in
  let s = Msts.Asap.of_sequence flat [| 1; 2; 1 |] in
  Alcotest.(check int) "three tasks" 3 (Msts.Tree_schedule.task_count s);
  Alcotest.(check (list int)) "nodes" [ 1; 2; 1 ]
    (List.map (Msts.Tree_schedule.node s) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "node 1 runs 1 and 3" [ 1; 3 ]
    (Msts.Tree_schedule.tasks_on s 1);
  Alcotest.check_raises "bad node"
    (Invalid_argument "Tree_schedule.of_columns: task 1 on node 9") (fun () ->
      ignore (tree_plan flat [| (9, 0, [| 0 |]) |]));
  Alcotest.check_raises "a vector shorter than the path"
    (Invalid_argument "Tree_schedule.of_columns: task 1 comm vector length") (fun () ->
      ignore (tree_plan flat [| (2, 0, [| 0 |]) |]))

(* ---------- heuristics ---------- *)

let tree_heuristics_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"tree heuristics are feasible and complete"
       (tree_with_n_arb ~max_nodes:8 ~max_n:10 ())
       (fun (tree, n) ->
         List.for_all
           (fun (_, policy) ->
             let s = Msts.Tree_heuristics.schedule policy tree n in
             Msts.Tree_schedule.task_count s = n
             && Msts.Tree_schedule.is_feasible ~require_nonnegative:true s)
           Msts.Tree_heuristics.tree_policies))

(* ---------- spider cover ---------- *)

let cover_feasible_on_tree =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"spider-cover schedules are feasible on the original tree"
       (tree_with_n_arb ~max_nodes:10 ~max_n:10 ())
       (fun (tree, n) ->
         List.for_all
           (fun policy ->
             let s = Msts.Tree_heuristics.spider_cover policy tree n in
             Msts.Tree_schedule.task_count s = n
             && Msts.Tree_schedule.is_feasible ~require_nonnegative:true s)
           [ Msts.Tree.Fastest_processor; Msts.Tree.Cheapest_link; Msts.Tree.Best_rate ]))

let cover_matches_platform_extraction =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"cover legs equal Msts_platform.Tree.extract_spider"
       (tree_arb ~max_nodes:10 ())
       (fun tree ->
         (* the cover re-derives the extraction with a node-id mapping; both
            routes must therefore produce the same optimal makespan *)
         List.for_all
           (fun policy ->
             Msts.Spider_algorithm.min_makespan (Msts.Tree.extract_spider policy tree) 6
             = Msts.Tree_heuristics.spider_cover_makespan policy tree 6)
           [ Msts.Tree.Fastest_processor; Msts.Tree.Cheapest_link; Msts.Tree.Best_rate ]))

let cover_beats_or_matches_root_only =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"best cover never loses to root-only"
       (tree_with_n_arb ~max_nodes:8 ~max_n:10 ())
       (fun (tree, n) ->
         QCheck.assume (n > 0);
         let _, best = Msts.Tree_heuristics.best_cover tree n in
         best
         <= Msts.Tree_heuristics.(makespan First_node) tree n))

(* ---------- search & bounds ---------- *)

let search_below_heuristics =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"FIFO search lower-bounds every heuristic"
       (tree_with_n_arb ~max_nodes:4 ~max_n:5 ())
       (fun (tree, n) ->
         let best = Msts.Tree_search.best_fifo_makespan tree n in
         List.for_all
           (fun (_, policy) -> best <= Msts.Tree_heuristics.makespan policy tree n)
           Msts.Tree_heuristics.tree_policies
         && List.for_all
              (fun policy ->
                best <= Msts.Tree_heuristics.spider_cover_makespan policy tree n)
              [ Msts.Tree.Fastest_processor; Msts.Tree.Cheapest_link ]))

let search_witness_attains =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"FIFO search witness attains its makespan"
       (tree_with_n_arb ~max_nodes:4 ~max_n:5 ())
       (fun (tree, n) ->
         let s = Msts.Tree_search.best_fifo_schedule tree n in
         Msts.Tree_schedule.is_feasible ~require_nonnegative:true s
         && Msts.Tree_schedule.makespan s = Msts.Tree_search.best_fifo_makespan tree n))

let lower_bound_valid =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"tree lower bound is below the FIFO optimum"
       (tree_with_n_arb ~max_nodes:4 ~max_n:5 ())
       (fun (tree, n) ->
         Msts.Tree_search.lower_bound tree n
         <= Msts.Tree_search.best_fifo_makespan tree n))

let search_on_path_equals_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"FIFO search on a path equals the chain optimum"
       (chain_with_n_arb ~max_p:3 ~max_n:5 ())
       (fun (chain, n) ->
         let rec to_nodes = function
           | [] -> []
           | (c, w) :: rest ->
               [ Msts.Tree.node ~latency:c ~work:w ~children:(to_nodes rest) () ]
         in
         let tree = Msts.Tree.make (to_nodes (Msts.Chain.to_pairs chain)) in
         Msts.Tree_search.best_fifo_makespan tree n
         = Msts.Chain_algorithm.makespan chain n))

(* ---------- steady state ---------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec path_nodes = function
  | [] -> []
  | (c, w) :: rest ->
      [ Msts.Tree.node ~latency:c ~work:w ~children:(path_nodes rest) () ]

(* rho(j) = min(1/c_j, 1/w_j + rho(j+1)), written out over the chain *)
let chain_recursion chain =
  let p = Msts.Chain.length chain in
  let rec rho j =
    if j > p then 0.0
    else
      min
        (1.0 /. float_of_int (Msts.Chain.latency chain j))
        ((1.0 /. float_of_int (Msts.Chain.work chain j)) +. rho (j + 1))
  in
  rho 1

let steady_path_equals_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"tree steady state on a path equals the chain's"
       (chain_arb ~max_p:5 ())
       (fun chain ->
         let tree = Msts.Tree.make (path_nodes (Msts.Chain.to_pairs chain)) in
         let rho = chain_recursion chain in
         same_float (Msts.Steady_state.tree_throughput tree) rho
         && same_float (Msts.Steady_state.chain_throughput chain) rho))

let of_spider_round_trips =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Tree.to_spider (Tree.of_spider s) = Some s"
       (spider_arb ~max_legs:5 ~max_depth:4 ())
       (fun spider ->
         match Msts.Tree.to_spider (Msts.Tree.of_spider spider) with
         | Some back -> Msts.Spider.equal back spider
         | None -> false))

let steady_spider_equals_spider =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"tree steady state on a spider shape equals the spider's"
       (spider_arb ~max_legs:5 ~max_depth:3 ~max_val:4 ())
       (fun spider ->
         let built =
           Msts.Tree.make
             (List.concat_map
                (fun l -> path_nodes (Msts.Chain.to_pairs (Msts.Spider.leg_chain spider l)))
                (List.init (Msts.Spider.legs spider) (fun l -> l + 1)))
         in
         let rho = Msts.Steady_state.spider_throughput spider in
         same_float (Msts.Steady_state.tree_throughput (Msts.Tree.of_spider spider)) rho
         && same_float (Msts.Steady_state.tree_throughput built) rho))

let steady_bounded_by_master_port =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"tree throughput respects the master's port"
       (tree_arb ~max_nodes:12 ())
       (fun tree ->
         let flat = Msts.Tree_flat.of_tree tree in
         let min_c =
           List.fold_left
             (fun acc id -> min acc (Msts.Tree_flat.info flat id).Msts.Tree_flat.latency)
             max_int
             (Msts.Tree_flat.children flat 0)
         in
         Msts.Steady_state.tree_throughput tree <= (1.0 /. float_of_int min_c) +. 1e-9))

let suites =
  [
    ( "tree.flat",
      [ case "preorder and paths" flat_preorder; flat_counts_match ] );
    ( "tree.schedule",
      [
        tree_asap_feasible;
        case "port conflict detected" tree_checker_catches_port_conflict;
        case "relay violation detected" tree_checker_catches_relay_violation;
        case "compute overlap detected" tree_checker_catches_compute_overlap;
        case "structure and validation" tree_schedule_structure;
      ] );
    ("tree.heuristics", [ tree_heuristics_feasible ]);
    ( "tree.cover",
      [
        cover_feasible_on_tree;
        cover_matches_platform_extraction;
        cover_beats_or_matches_root_only;
      ] );
    ( "tree.search",
      [
        search_below_heuristics;
        search_witness_attains;
        lower_bound_valid;
        search_on_path_equals_chain;
      ] );
    ( "tree.steady",
      [
        steady_path_equals_chain;
        of_spider_round_trips;
        steady_spider_equals_spider;
        steady_bounded_by_master_port;
      ] );
  ]
