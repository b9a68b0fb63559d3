(* Reproduction experiments E1–E12 (see DESIGN.md §3).

   The paper has no numeric tables; its reproducible artefacts are worked
   figures and theorems.  Each experiment regenerates one of them and
   prints a table; EXPERIMENTS.md records the expected output. *)

let seeded seed = Msts.Prng.create seed

(* ---------------- E1: Figure 1 — the chain model ---------------- *)

let fig1 () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5); (1, 7) ] in
  print_endline "E1 (Figure 1): a chain platform, master on the left.";
  Printf.printf "  %s\n" (Msts.Chain.to_string chain);
  print_endline "  DOT rendering (also via `msts dot`):";
  print_string (Msts.Dot.of_chain chain);
  (* Figure 5: a spider -- only the master branches *)
  let spider =
    Msts.Spider.of_legs
      [
        Msts.Chain.of_pairs [ (2, 3); (3, 5) ];
        Msts.Chain.of_pairs [ (1, 4) ];
        Msts.Chain.of_pairs [ (2, 2); (1, 6); (2, 3) ];
      ]
  in
  print_endline "\nE1b (Figure 5): a spider -- only the master has arity > 1.";
  Printf.printf "  %s\n" (Msts.Spider.to_string spider);
  print_string (Msts.Dot.of_spider spider)

(* ---------------- E2: Figure 2 — the worked schedule ---------------- *)

let fig2 () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ] in
  let n = 5 in
  print_endline "E2 (Figure 2): optimal schedule on chain (2,3),(3,5), n=5.";
  let sched = Msts.Chain_algorithm.schedule chain n in
  Printf.printf "  makespan: %d (paper: 14)\n" (Msts.Schedule.makespan sched);
  let emissions =
    List.map (fun i -> Msts.Schedule.emission sched i 1) [ 1; 2; 3; 4; 5 ]
  in
  Printf.printf "  emissions: %s (paper: 0,2,4,6,9)\n"
    (String.concat "," (List.map string_of_int emissions));
  Printf.printf "  task on P2: %s (paper: task 3)\n"
    (String.concat "," (List.map string_of_int (Msts.Schedule.tasks_on sched 2)));
  print_endline (Msts.Plan.gantt ~width:70 (Msts.Plan.Chain sched));
  assert (Msts.Schedule.makespan sched = 14);
  assert (emissions = [ 0; 2; 4; 6; 9 ]);
  (* publishable SVG artefact of the reproduced figure *)
  (try Unix.mkdir "artifacts" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Msts.Svg.save "artifacts/figure2.svg" (Msts.Plan.svg (Msts.Plan.Chain sched));
  print_endline "  [checked against the paper's values; artifacts/figure2.svg written]"

(* ---------------- E3/E4: Lemmas 1 and 2 on random instances ------------- *)

let lemma_sweep () =
  let rng = seeded 101 in
  let trials = 400 in
  let failures1 = ref 0 and failures2 = ref 0 in
  for _ = 1 to trials do
    let p = 1 + Msts.Prng.int rng 5 in
    let n = 1 + Msts.Prng.int rng 15 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    if not (Msts.Chain_lemmas.check_no_crossing_throughout chain n) then
      incr failures1;
    if not (Msts.Chain_lemmas.subchain_projection chain n) then incr failures2
  done;
  Printf.printf
    "E3 (Lemma 1, Fig. 4): no candidate crossing in %d/%d random constructions.\n"
    (trials - !failures1) trials;
  Printf.printf
    "E4 (Lemma 2): sub-chain projection held in %d/%d random constructions.\n"
    (trials - !failures2) trials;
  assert (!failures1 = 0 && !failures2 = 0)

(* ---------------- E5: Theorem 1 — chain optimality ---------------- *)

let chain_optimality () =
  let rng = seeded 2003 in
  let profiles =
    [
      ("default", Msts.Generator.default_profile);
      ("balanced", Msts.Generator.balanced_profile);
      ("compute-bound", Msts.Generator.compute_bound_profile);
      ("comm-bound", Msts.Generator.comm_bound_profile);
    ]
  in
  let table =
    Msts.Table.create ~title:"E5 (Theorem 1): algorithm vs brute force on random chains"
      ~columns:[ "profile"; "instances"; "agreements"; "max |gap|" ]
  in
  List.iter
    (fun (name, profile) ->
      let trials = 150 in
      let agree = ref 0 and max_gap = ref 0 in
      for _ = 1 to trials do
        let p = 1 + Msts.Prng.int rng 4 in
        let n = Msts.Prng.int rng 7 in
        let chain = Msts.Generator.chain rng profile ~p in
        let a = Msts.Chain_algorithm.makespan chain n in
        let b = Msts.Brute_force.chain_makespan chain n in
        if a = b then incr agree;
        max_gap := max !max_gap (abs (a - b))
      done;
      Msts.Table.add_row table
        [ name; string_of_int trials; string_of_int !agree; string_of_int !max_gap ];
      assert (!agree = trials))
    profiles;
  Msts.Table.print table

(* ---------------- E6: Figure 6 — node expansion ---------------- *)

let fig6 () =
  let table =
    Msts.Table.create
      ~title:"E6 (Figure 6): virtual single-task nodes of a slave (c,w)"
      ~columns:[ "slave"; "rank 0"; "rank 1"; "rank 2"; "rank 3" ]
  in
  List.iter
    (fun (c, w) ->
      Msts.Table.add_row table
        (Printf.sprintf "(c=%d,w=%d)" c w
        :: List.map
             (fun rank ->
               string_of_int (Msts.Fork_expansion.virtual_work ~c ~w ~rank))
             [ 0; 1; 2; 3 ]))
    [ (2, 4); (5, 4); (3, 3); (1, 10) ];
  Msts.Table.print table;
  print_endline "  (rank r needs w + r*max(c,w) after its transfer: the j-th"
  ;
  print_endline "   task from the end on a slave cannot start later than that)"

(* ---------------- E7: Figure 7 — chain -> fork transformation ----------- *)

let fig7 () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ] in
  let deadline = 14 in
  let trace = Msts.Spider_trace.run (Msts.Spider.of_chain chain) ~deadline in
  (* allocation order runs from the leg's last task back to its first *)
  let nodes = List.rev trace.Msts.Spider_trace.virtual_nodes in
  let table =
    Msts.Table.create
      ~title:
        "E7 (Figure 7): virtual fork of the Figure-2 chain at T_lim=14 \
         (paper: works {12,10,8,6,3}, comms all 2)"
      ~columns:[ "leg task"; "emission C1"; "comm"; "virtual work" ]
  in
  List.iter
    (fun v ->
      let task =
        trace.Msts.Spider_trace.leg_tasks.(0) - v.Msts.Fork_expansion.rank
      in
      let c1 =
        (List.find
           (fun a -> a.Msts.Spider_trace.leg_task = task)
           trace.Msts.Spider_trace.accepted)
          .Msts.Spider_trace.original_emission
      in
      Msts.Table.add_row table
        [
          string_of_int task;
          string_of_int c1;
          string_of_int v.Msts.Fork_expansion.comm;
          string_of_int v.Msts.Fork_expansion.work;
        ])
    nodes;
  Msts.Table.print table;
  let works =
    List.sort compare (List.map (fun v -> v.Msts.Fork_expansion.work) nodes)
  in
  assert (works = [ 3; 6; 8; 10; 12 ]);
  print_endline "  [checked against the paper's values]"

(* ---------------- E9: Theorem 3 — spider optimality ---------------- *)

let spider_optimality () =
  let rng = seeded 31337 in
  let trials = 120 in
  let agree_makespan = ref 0 and agree_tasks = ref 0 and used = ref 0 in
  for _ = 1 to trials do
    let legs = 1 + Msts.Prng.int rng 3 in
    let spider =
      Msts.Generator.spider rng Msts.Generator.balanced_profile ~legs ~max_depth:2
    in
    if Msts.Spider.processor_count spider <= 5 then begin
      incr used;
      let n = 1 + Msts.Prng.int rng 5 in
      if
        Msts.Spider_algorithm.min_makespan spider n
        = Msts.Brute_force.spider_makespan spider n
      then incr agree_makespan;
      let d = Msts.Prng.int rng 40 in
      if
        min 5 (Msts.Spider_algorithm.max_tasks ~budget:5 spider ~deadline:d)
        = Msts.Brute_force.max_tasks spider ~deadline:d ~limit:5
      then incr agree_tasks
    end
  done;
  Printf.printf
    "E9 (Theorem 3): spider vs brute force on %d random spiders:\n\
    \  optimal makespan agreement: %d/%d\n\
    \  deadline task-count agreement: %d/%d\n"
    !used !agree_makespan !used !agree_tasks !used;
  assert (!agree_makespan = !used && !agree_tasks = !used)

(* ---------------- E11: heuristics gap ---------------- *)

let heuristics_gap () =
  let rng = seeded 555 in
  let profiles =
    [
      ("default", Msts.Generator.default_profile);
      ("compute-bound", Msts.Generator.compute_bound_profile);
      ("comm-bound", Msts.Generator.comm_bound_profile);
    ]
  in
  let policies = Msts.Tree_heuristics.chain_policies in
  let table =
    Msts.Table.create
      ~title:
        "E11: heuristic makespan / optimal makespan (geometric mean over 60 \
         random chains, p=6, n=40)"
      ~columns:("profile" :: List.map fst policies @ [ "LB/opt" ])
  in
  List.iter
    (fun (name, profile) ->
      let trials = 60 in
      let ratios = Array.make_matrix (List.length policies) trials 0.0 in
      let bound_ratio = Array.make trials 0.0 in
      for t = 0 to trials - 1 do
        let chain = Msts.Generator.chain rng profile ~p:6 in
        let n = 40 in
        let opt = Msts.Chain_algorithm.makespan chain n in
        let spider = Msts.Spider.of_chain chain in
        let tree = Msts.Tree.of_spider spider in
        List.iteri
          (fun i (_, policy) ->
            let makespan = Msts.Tree_heuristics.makespan policy tree n in
            assert (makespan >= opt);
            ratios.(i).(t) <- float_of_int makespan /. float_of_int opt)
          policies;
        let lb = Msts.Bounds.spider_combined_bound spider n in
        assert (lb <= opt);
        bound_ratio.(t) <- float_of_int lb /. float_of_int opt
      done;
      Msts.Table.add_row table
        (name
        :: List.mapi
             (fun i _ ->
               Printf.sprintf "%.3f" (Msts.Stats.geometric_mean ratios.(i)))
             policies
        @ [ Printf.sprintf "%.3f" (Msts.Stats.geometric_mean bound_ratio) ]))
    profiles;
  Msts.Table.print table;
  print_endline
    "  (every ratio >= 1.000 by Theorem 1; LB/opt <= 1.000 by construction)"

(* ---------------- E12: deadline staircase ---------------- *)

let deadline_staircase () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ] in
  let table =
    Msts.Table.create
      ~title:"E12: tasks completed within T_lim (Figure-2 chain) and inverse check"
      ~columns:[ "T_lim"; "tasks"; "opt makespan for that many" ]
  in
  List.iter
    (fun d ->
      let k = Msts.Chain_deadline.max_tasks chain ~deadline:d in
      Msts.Table.add_row table
        [
          string_of_int d;
          string_of_int k;
          string_of_int (Msts.Chain_algorithm.makespan chain k);
        ];
      (* inverse consistency *)
      assert (Msts.Chain_algorithm.makespan chain k <= d))
    [ 4; 5; 7; 8; 10; 11; 13; 14; 16; 17; 20; 25; 30 ];
  Msts.Table.print table

(* ---------------- steady-state convergence (supports E11) --------------- *)

let throughput_convergence () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ] in
  let rho = Msts.Steady_state.chain_throughput chain in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "steady state: optimal makespan/n vs asymptotic 1/rho = %.3f" (1.0 /. rho))
      ~columns:[ "n"; "makespan"; "makespan/n" ]
  in
  List.iter
    (fun n ->
      let m = Msts.Chain_algorithm.makespan chain n in
      Msts.Table.add_row table
        [
          string_of_int n;
          string_of_int m;
          Printf.sprintf "%.4f" (float_of_int m /. float_of_int n);
        ])
    [ 5; 10; 20; 50; 100; 200; 500; 1000 ];
  Msts.Table.print table

(* ---------------- pull-policy transient (supports E11) --------------- *)

let pull_gap () =
  let rng = seeded 808 in
  let table =
    Msts.Table.create
      ~title:
        "online demand-driven master vs optimal (mean over 30 random spiders, \
         3 legs, depth <= 3)"
      ~columns:[ "n"; "pull b=1 / opt"; "pull b=2 / opt"; "ECT / opt" ]
  in
  List.iter
    (fun n ->
      let trials = 30 in
      let r1 = Array.make trials 0.0
      and r2 = Array.make trials 0.0
      and r3 = Array.make trials 0.0 in
      for t = 0 to trials - 1 do
        let spider =
          Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3
            ~max_depth:3
        in
        let opt = float_of_int (Msts.Spider_algorithm.min_makespan spider n) in
        let mk b =
          float_of_int
            (Msts.Spider_schedule.makespan
               (Msts.Netsim.pull_policy ~buffer:b spider ~tasks:n))
          /. opt
        in
        r1.(t) <- mk 1;
        r2.(t) <- mk 2;
        r3.(t) <-
          float_of_int
            (Msts.Tree_heuristics.(makespan Earliest_completion)
               (Msts.Tree.of_spider spider) n)
          /. opt
      done;
      Msts.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.3f" (Msts.Stats.mean r1);
          Printf.sprintf "%.3f" (Msts.Stats.mean r2);
          Printf.sprintf "%.3f" (Msts.Stats.mean r3);
        ])
    [ 5; 10; 20; 40 ];
  Msts.Table.print table

(* ---------------- activation frontier (chain usage analysis) ----------- *)

let activation_frontier () =
  let layers = 6 in
  let chain_for hop =
    Msts.Chain.of_pairs
      (List.map
         (fun k -> (hop, max 1 (24 / min (2 * k) 10)))
         (Msts.Intx.range 1 layers))
  in
  let table =
    Msts.Table.create
      ~title:
        "activation frontier: least n at which each layer of a layered chain \
         receives work (by hop latency)"
      ~columns:
        ("hop"
        :: List.map (fun k -> Printf.sprintf "layer %d" k) (Msts.Intx.range 1 layers))
  in
  List.iter
    (fun hop ->
      let chain = chain_for hop in
      Msts.Table.add_row table
        (string_of_int hop
        :: List.map
             (fun k ->
               match Msts.Chain_analysis.activation_threshold chain ~k ~max_n:200 with
               | Some n -> string_of_int n
               | None -> "-")
             (Msts.Intx.range 1 layers)))
    [ 1; 2; 3; 5; 8 ];
  Msts.Table.print table;
  print_endline
    "  (cheap hops light layers up almost immediately; expensive hops push"
  ;
  print_endline "   the activation thresholds out or beyond the tested range)"

(* ---------------- heterogeneity sweep (supports §1's motivation) -------- *)

let heterogeneity_sweep () =
  let rng = seeded 909 in
  let trials = 50 in
  let n = 40 and p = 6 in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "heterogeneity sweep: same mean scale, growing spread (%d chains \
            each, p=%d, n=%d)"
           trials p n)
      ~columns:
        [ "spread"; "mean CV"; "ECT/opt"; "round-robin/opt"; "LB/opt"; "opt/n" ]
  in
  List.iter
    (fun spread ->
      let cv = Array.make trials 0.0
      and ect = Array.make trials 0.0
      and rr = Array.make trials 0.0
      and lb = Array.make trials 0.0
      and per_task = Array.make trials 0.0 in
      for t = 0 to trials - 1 do
        let profile =
          Msts.Generator.spread_profile ~mean_latency:5 ~mean_work:12 ~spread
        in
        let chain = Msts.Generator.chain rng profile ~p in
        let opt = float_of_int (Msts.Chain_algorithm.makespan chain n) in
        cv.(t) <- Msts.Generator.heterogeneity chain;
        let spider = Msts.Spider.of_chain chain in
        let tree = Msts.Tree.of_spider spider in
        ect.(t) <-
          float_of_int (Msts.Tree_heuristics.(makespan Earliest_completion) tree n)
          /. opt;
        rr.(t) <-
          float_of_int (Msts.Tree_heuristics.(makespan Round_robin) tree n) /. opt;
        lb.(t) <- float_of_int (Msts.Bounds.spider_combined_bound spider n) /. opt;
        per_task.(t) <- opt /. float_of_int n
      done;
      Msts.Table.add_row table
        [
          Printf.sprintf "%.1f" spread;
          Printf.sprintf "%.3f" (Msts.Stats.mean cv);
          Printf.sprintf "%.3f" (Msts.Stats.geometric_mean ect);
          Printf.sprintf "%.3f" (Msts.Stats.geometric_mean rr);
          Printf.sprintf "%.3f" (Msts.Stats.geometric_mean lb);
          Printf.sprintf "%.2f" (Msts.Stats.mean per_task);
        ])
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ];
  Msts.Table.print table;
  print_endline
    "  (the more heterogeneous the platform, the more myopic rules pay;"
  ;
  print_endline "   spread 0.0 is the homogeneous control)"

(* ---------------- finite-buffer sensitivity (model extension) ----------- *)

let buffer_sensitivity () =
  let rng = seeded 13579 in
  let trials = 40 in
  let n = 30 in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "finite buffers: realised/planned makespan of the optimal plan \
            (mean over %d random spiders, n=%d)"
           trials n)
      ~columns:[ "buffer"; "mean inflation"; "max inflation"; "plans unharmed" ]
  in
  let plans =
    List.init trials (fun _ ->
        let spider =
          Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3
            ~max_depth:3
        in
        Msts.Spider_algorithm.schedule_tasks spider n)
  in
  List.iter
    (fun buffer ->
      let ratios =
        Array.of_list
          (List.map
             (fun plan ->
               let report = Msts.Netsim.replay_routing ~buffer plan in
               float_of_int report.Msts.Netsim.realized_makespan
               /. float_of_int report.Msts.Netsim.planned_makespan)
             plans)
      in
      let unharmed =
        Array.fold_left (fun acc r -> if r <= 1.0 +. 1e-9 then acc + 1 else acc) 0 ratios
      in
      let _, hi = Msts.Stats.min_max ratios in
      Msts.Table.add_row table
        [
          string_of_int buffer;
          Printf.sprintf "%.4f" (Msts.Stats.mean ratios);
          Printf.sprintf "%.4f" hi;
          Printf.sprintf "%d/%d" unharmed trials;
        ])
    [ 1; 2; 3; 8; 30 ];
  Msts.Table.print table;
  print_endline
    "  (the paper's model assumes unlimited buffering; with per-node slots"
  ;
  print_endline
    "   the optimal plan's routing survives but its dates can slip)"

(* ---------------- failure injection / robustness ---------------- *)

let robustness () =
  let rng = seeded 24680 in
  let trials = 30 in
  let n = 30 in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "failure injection: one random processor slows down by a factor \
            (mean makespan ratios vs replanning, %d random spiders, n=%d)"
           trials n)
      ~columns:
        [ "slowdown"; "static plan / replan"; "pull b=2 / replan"; "replan / healthy" ]
  in
  List.iter
    (fun factor ->
      let static = Array.make trials 0.0
      and pull = Array.make trials 0.0
      and replan = Array.make trials 0.0 in
      for t = 0 to trials - 1 do
        let spider =
          Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3
            ~max_depth:3
        in
        let plan = Msts.Spider_algorithm.schedule_tasks spider n in
        let addresses = Array.of_list (Msts.Spider.addresses spider) in
        let victim = addresses.(Msts.Prng.int rng (Array.length addresses)) in
        let hurt = Msts.Netsim.degrade spider ~address:victim ~work_factor:factor in
        let replanned = float_of_int (Msts.Spider_algorithm.min_makespan hurt n) in
        static.(t) <-
          float_of_int
            (Msts.Netsim.replay_routing ~on:hurt plan).Msts.Netsim.realized_makespan
          /. replanned;
        pull.(t) <-
          float_of_int
            (Msts.Spider_schedule.makespan
               (Msts.Netsim.pull_policy ~buffer:2 hurt ~tasks:n))
          /. replanned;
        replan.(t) <-
          replanned /. float_of_int (Msts.Spider_schedule.makespan plan)
      done;
      Msts.Table.add_row table
        [
          Printf.sprintf "x%d" factor;
          Printf.sprintf "%.3f" (Msts.Stats.mean static);
          Printf.sprintf "%.3f" (Msts.Stats.mean pull);
          Printf.sprintf "%.3f" (Msts.Stats.mean replan);
        ])
    [ 1; 2; 4; 8 ];
  Msts.Table.print table;
  print_endline
    "  (mild faults: the static optimal plan stays ahead of the oblivious"
  ;
  print_endline
    "   pull master; severe faults: adaptivity wins -- the crossover is the"
  ;
  print_endline "   planning-vs-reacting trade-off in one table)"

(* ---------------- prefix sweep: how many processors are worth having --- *)

let prefix_sweep () =
  let chain =
    Msts.Chain.of_pairs [ (2, 9); (1, 7); (3, 6); (2, 5); (1, 8); (4, 4) ]
  in
  let table =
    Msts.Table.create
      ~title:
        "prefix sweep: optimal makespan using only the first k processors \
         (fixed 6-processor chain)"
      ~columns:[ "k"; "n=10"; "n=40"; "n=160"; "steady rate" ]
  in
  List.iter
    (fun k ->
      let prefix = Msts.Chain.prefix chain k in
      Msts.Table.add_row table
        [
          string_of_int k;
          string_of_int (Msts.Chain_algorithm.makespan prefix 10);
          string_of_int (Msts.Chain_algorithm.makespan prefix 40);
          string_of_int (Msts.Chain_algorithm.makespan prefix 160);
          Printf.sprintf "%.3f" (Msts.Steady_state.chain_throughput prefix);
        ])
    (Msts.Intx.range 1 (Msts.Chain.length chain));
  Msts.Table.print table;
  print_endline
    "  (each extra processor helps monotonically -- the algebraic property"
  ;
  print_endline
    "   tests prove it can never hurt -- but with diminishing returns once"
  ;
  print_endline "   the steady rate approaches the first link's 1/c1 cap)"

let all : (string * string * (unit -> unit)) list =
  [
    ("fig1", "Figures 1 & 5: chain and spider platform renderings", fig1);
    ("fig2", "Figure 2: the worked optimal schedule", fig2);
    ("lemmas", "Lemmas 1 & 2 on random instances (E3/E4)", lemma_sweep);
    ("chain-optimality", "Theorem 1 vs brute force (E5)", chain_optimality);
    ("fig6", "Figure 6: virtual-node expansion", fig6);
    ("fig7", "Figure 7: chain->fork transformation", fig7);
    ("spider-optimality", "Theorem 3 vs brute force (E9)", spider_optimality);
    ("heuristics", "heuristic gap across profiles (E11)", heuristics_gap);
    ("heterogeneity", "heuristic gap vs heterogeneity spread", heterogeneity_sweep);
    ("activation", "activation frontier of a layered chain", activation_frontier);
    ("prefix-sweep", "marginal value of each extra processor", prefix_sweep);
    ("deadline", "deadline staircase and inverse (E12)", deadline_staircase);
    ("throughput", "steady-state convergence", throughput_convergence);
    ("pull", "online pull policy transient cost", pull_gap);
    ("buffers", "finite-buffer sensitivity of optimal plans", buffer_sensitivity);
    ("robustness", "failure injection: static plan vs replanning vs pull", robustness);
  ]
