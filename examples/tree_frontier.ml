(* Toward general trees (the paper's conclusion).

   Optimal scheduling on arbitrary trees of heterogeneous processors is the
   open problem the paper points at; its proposed attack is to cover the
   tree with structures it can schedule optimally.  This example walks that
   frontier on a concrete tree:

     - three spider covers (keep one child under every branching node),
       each scheduled optimally with the §7 algorithm;
     - the myopic forward heuristic that uses the whole tree;
     - the exhaustive FIFO search (exact within its class) on a small
       instance, to see how much the covers leave on the table;
     - the bandwidth-centric steady-state rate of the full tree, the
       asymptotic target no cover can beat.

   Run with: dune exec examples/tree_frontier.exe *)

let leaf ~latency ~work = Msts.Tree.node ~latency ~work ()

(* a two-level office network: two switches behind the master, machines of
   mixed speed behind each switch *)
let tree =
  Msts.Tree.make
    [
      Msts.Tree.node ~latency:1 ~work:6
        ~children:
          [ leaf ~latency:2 ~work:4; leaf ~latency:1 ~work:9; leaf ~latency:3 ~work:2 ]
        ();
      Msts.Tree.node ~latency:2 ~work:3
        ~children:[ leaf ~latency:1 ~work:5; leaf ~latency:4 ~work:2 ] ();
    ]

let () =
  Printf.printf "Tree platform: %s\n" (Msts.Tree.to_string tree);
  Printf.printf "%d processors, depth %d, steady-state rate %.3f tasks/unit\n\n"
    (Msts.Tree.processor_count tree) (Msts.Tree.depth tree)
    (Msts.Steady_state.tree_throughput tree);

  let n = 24 in
  let table =
    Msts.Table.create
      ~title:(Printf.sprintf "scheduling %d tasks on the tree" n)
      ~columns:[ "method"; "makespan"; "vs lower bound" ]
  in
  let lb = Msts.Tree_search.lower_bound tree n in
  let row name makespan =
    Msts.Table.add_row table
      [
        name;
        string_of_int makespan;
        Printf.sprintf "%.2fx" (float_of_int makespan /. float_of_int lb);
      ]
  in
  List.iter
    (fun (name, policy) -> row ("cover: " ^ name) (Msts.Tree_heuristics.spider_cover_makespan policy tree n))
    [
      ("fastest processor", Msts.Tree.Fastest_processor);
      ("cheapest link", Msts.Tree.Cheapest_link);
      ("best subtree rate", Msts.Tree.Best_rate);
    ];
  List.iter
    (fun (name, policy) ->
      row ("forward: " ^ name) (Msts.Tree_heuristics.makespan policy tree n))
    Msts.Tree_heuristics.tree_policies;
  Msts.Table.add_row table [ "lower bound"; string_of_int lb; "1.00x" ];
  Msts.Table.print table;

  (* every cover schedule really is feasible on the tree *)
  let cover =
    Msts.Tree_heuristics.spider_cover Msts.Tree.Best_rate tree n
  in
  assert (Msts.Tree_schedule.is_feasible ~require_nonnegative:true cover);
  Printf.printf "\nBest-rate cover schedule uses nodes: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun info ->
            let id = info.Msts.Tree_flat.id in
            if Msts.Tree_schedule.tasks_on cover id <> [] then
              Some (string_of_int id)
            else None)
          (Msts.Tree_flat.nodes (Msts.Tree_schedule.flat cover))));

  (* a tiny instance where we can afford the exhaustive FIFO search *)
  let small =
    Msts.Tree.make
      [
        Msts.Tree.node ~latency:1 ~work:3
          ~children:[ leaf ~latency:2 ~work:2 ] ();
        leaf ~latency:3 ~work:4;
      ]
  in
  let sn = 5 in
  Printf.printf "\nSmall tree %s, n=%d:\n" (Msts.Tree.to_string small) sn;
  Printf.printf "  exhaustive FIFO search: %d\n"
    (Msts.Tree_search.best_fifo_makespan small sn);
  let policy, cover_makespan = Msts.Tree_heuristics.best_cover small sn in
  Printf.printf "  best spider cover:      %d (%s)\n" cover_makespan
    (match policy with
    | Msts.Tree.Fastest_processor -> "fastest processor"
    | Msts.Tree.Cheapest_link -> "cheapest link"
    | Msts.Tree.Best_rate -> "best subtree rate");
  Printf.printf "  lower bound:            %d\n"
    (Msts.Tree_search.lower_bound small sn);
  print_endline
    "\nThe gap between the best cover and the search is the price of";
  print_endline
    "discarding subtrees -- the open problem the paper leaves for trees."
