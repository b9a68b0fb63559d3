(* Tests for the baselines on chains and spiders: ASAP timing, brute force
   internals, forward heuristics (all run on [Tree.of_spider]), lower
   bounds and steady-state analysis. *)

open Helpers

(* ---------- ASAP ---------- *)

let asap_sequences_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"ASAP timing of any sequence is feasible"
       (QCheck.make
          ~print:(fun (chain, seq) ->
            Printf.sprintf "%s, seq=[%s]" (Msts.Chain.to_string chain)
              (String.concat ";" (List.map string_of_int (Array.to_list seq))))
          QCheck.Gen.(
            chain_gen ~max_p:5 () >>= fun chain ->
            map
              (fun dests -> (chain, Array.of_list dests))
              (list_size (int_range 0 15)
                 (int_range 1 (Msts.Chain.length chain)))))
       (fun (chain, seq) -> check_feasible (chain_asap chain seq)))

let asap_makespan_agrees =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"Asap.makespan equals the chain schedule's makespan"
       (QCheck.make
          ~print:(fun (chain, seq) ->
            Printf.sprintf "%s, seq=[%s]" (Msts.Chain.to_string chain)
              (String.concat ";" (List.map string_of_int (Array.to_list seq))))
          QCheck.Gen.(
            chain_gen ~max_p:5 () >>= fun chain ->
            map
              (fun dests -> (chain, Array.of_list dests))
              (list_size (int_range 0 15)
                 (int_range 1 (Msts.Chain.length chain)))))
       (fun (chain, seq) ->
         Msts.Asap.makespan (Msts.Tree_flat.of_tree (chain_tree chain)) seq
         = Msts.Schedule.makespan (chain_asap chain seq)))

let asap_known_example () =
  (* single processor (c=2,w=3): emissions 0,2,4; starts 2,5,8 *)
  let chain = Msts.Chain.of_pairs [ (2, 3) ] in
  let s = chain_asap chain [| 1; 1; 1 |] in
  Alcotest.(check int) "makespan" 11 (Msts.Schedule.makespan s);
  Alcotest.(check int) "second start" 5 (Msts.Schedule.start s 2)

let asap_push_rejects_bad_dest () =
  let st = Msts.Asap.start (Msts.Tree_flat.of_tree (chain_tree figure2_chain)) in
  Alcotest.check_raises "dest 0"
    (Invalid_argument "Flat.info: node 0 outside 1..2") (fun () ->
      ignore (Msts.Asap.push st ~dest:0 ~emissions:[| 0; 0 |] ~pos:0));
  Alcotest.check_raises "dest 3"
    (Invalid_argument "Flat.info: node 3 outside 1..2") (fun () ->
      ignore (Msts.Asap.push st ~dest:3 ~emissions:[| 0; 0 |] ~pos:0))

let asap_spider_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"spider ASAP timing is feasible"
       (QCheck.make
          ~print:(fun (spider, _) -> Msts.Spider.to_string spider)
          QCheck.Gen.(
            spider_gen ~max_legs:3 ~max_depth:3 () >>= fun spider ->
            let addresses = Array.of_list (Msts.Spider.addresses spider) in
            map
              (fun picks ->
                (spider, Array.of_list (List.map (Array.get addresses) picks)))
              (list_size (int_range 0 12)
                 (int_range 0 (Array.length addresses - 1)))))
       (fun (spider, seq) ->
         check_spider_feasible (spider_asap spider seq)))

(* ---------- brute force ---------- *)

let brute_force_schedule_witness =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"brute-force witness schedule attains its makespan"
       (chain_with_n_arb ~max_p:3 ~max_n:6 ())
       (fun (chain, n) ->
         let spider = Msts.Spider.of_chain chain in
         let s =
           Msts.Spider_schedule.leg_schedule
             (Msts.Tree_schedule.to_spider spider
                (Msts.Tree_search.best_fifo_schedule (Msts.Tree.of_spider spider) n))
             1
         in
         check_feasible s
         && Msts.Schedule.makespan s = Msts.Brute_force.chain_makespan chain n))

let brute_force_zero () =
  Alcotest.(check int) "0 tasks" 0 (Msts.Brute_force.chain_makespan figure2_chain 0);
  Alcotest.(check int) "spider 0 tasks" 0
    (Msts.Brute_force.spider_makespan (Msts.Spider.of_chain figure2_chain) 0)

(* ---------- heuristics ---------- *)

let heuristics_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"every chain heuristic yields a feasible schedule"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         List.for_all
           (fun (_, policy) -> check_feasible (chain_heuristic policy chain n))
           Msts.Tree_heuristics.chain_policies))

let spider_heuristics_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"every spider heuristic yields a feasible schedule"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:12 ())
       (fun (spider, n) ->
         let tree = Msts.Tree.of_spider spider in
         List.for_all
           (fun (_, policy) ->
             check_spider_feasible
               (Msts.Tree_schedule.to_spider spider
                  (Msts.Tree_heuristics.schedule policy tree n)))
           Msts.Tree_heuristics.spider_policies))

let master_only_matches_formula =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"master-only heuristic equals the T-inf formula"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         n = 0
         || chain_heuristic_makespan Msts.Tree_heuristics.First_node chain n
            = Msts.Chain.master_only_makespan chain n))

let heuristic_task_counts =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"heuristics schedule exactly n tasks"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         List.for_all
           (fun (_, policy) ->
             Msts.Schedule.task_count (chain_heuristic policy chain n) = n)
           Msts.Tree_heuristics.chain_policies))

let random_policy_deterministic () =
  let chain = figure2_chain in
  let a = chain_heuristic (Msts.Tree_heuristics.Random 5) chain 10 in
  let b = chain_heuristic (Msts.Tree_heuristics.Random 5) chain 10 in
  Alcotest.(check bool) "same seed, same schedule" true (Msts.Schedule.equal a b)

(* ---------- bounds ---------- *)

let bounds_below_optimal =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"all chain lower bounds are <= optimal"
       (chain_with_n_arb ~max_p:4 ~max_n:7 ())
       (fun (chain, n) ->
         let opt = Msts.Brute_force.chain_makespan chain n in
         let spider = Msts.Spider.of_chain chain in
         Msts.Bounds.spider_port_bound spider n <= opt
         && Msts.Bounds.spider_capacity_bound spider n <= opt
         && Msts.Bounds.spider_combined_bound spider n <= opt
         && Msts.Bounds.spider_fluid_bound spider n <= float_of_int opt +. 1e-6))

let spider_bounds_below_optimal =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"all spider lower bounds are <= optimal"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:5 ())
       (fun (spider, n) ->
         QCheck.assume (Msts.Spider.processor_count spider <= 5);
         let opt = Msts.Brute_force.spider_makespan spider n in
         Msts.Bounds.spider_port_bound spider n <= opt
         && Msts.Bounds.spider_capacity_bound spider n <= opt
         && Msts.Bounds.spider_combined_bound spider n <= opt))

let spider_fluid_below_optimal =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"spider fluid bound is <= optimal"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:5 ())
       (fun (spider, n) ->
         QCheck.assume (Msts.Spider.processor_count spider <= 5);
         Msts.Bounds.spider_fluid_bound spider n
         <= float_of_int (Msts.Brute_force.spider_makespan spider n) +. 1e-6))

(* Search.lower_bound re-derives the port and capacity arguments over the
   flat tree; on a spider's tree it must give the same number. *)
let tree_lower_bound_matches_spider_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"tree lower bound on a spider = max of its port and capacity bounds"
       (spider_with_n_arb ~max_legs:5 ~max_depth:4 ~max_n:60 ~max_val:12 ())
       (fun (spider, n) ->
         let tree = Msts.Tree_search.lower_bound (Msts.Tree.of_spider spider) n
         and spider_lb =
           max
             (Msts.Bounds.spider_port_bound spider n)
             (Msts.Bounds.spider_capacity_bound spider n)
         in
         tree = spider_lb
         || QCheck.Test.fail_reportf "tree %d, spider %d" tree spider_lb))

(* The fluid bounds as they were first written: the least horizon M whose
   fluid load reaches n, by 60 bisection steps from 0 up to the master-only
   makespan.  The library now returns the closed form n /. rho; these
   references check it against the definition. *)
let fluid_load chain m =
  let p = Msts.Chain.length chain in
  let rec g j =
    if j > p then 0.0
    else
      min
        (m /. float_of_int (Msts.Chain.latency chain j))
        ((m /. float_of_int (Msts.Chain.work chain j)) +. g (j + 1))
  in
  g 1

let bisect_fluid ~hi ~load n =
  if n = 0 then 0.0
  else begin
    let target = float_of_int n in
    let lo = ref 0.0 and hi = ref (float_of_int hi) in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if load mid >= target then hi := mid else lo := mid
    done;
    !hi
  end

let reference_chain_fluid_bound chain n =
  bisect_fluid
    ~hi:(Msts.Chain.master_only_makespan chain n)
    ~load:(fluid_load chain) n

(* Every leg's recursive chain load, sorted by first-hop cost at each
   probe, packed into the port's horizon greedily. *)
let reference_spider_fluid_bound spider n =
  let spider_fluid_load m =
    let legs =
      List.map
        (fun l ->
          let chain = Msts.Spider.leg_chain spider l in
          (float_of_int (Msts.Chain.latency chain 1), fluid_load chain m))
        (List.init (Msts.Spider.legs spider) (fun i -> i + 1))
    in
    let sorted = List.sort (fun (ca, _) (cb, _) -> compare ca cb) legs in
    fst
      (List.fold_left
         (fun (total, port_left) (c1, cap) ->
           let load = min cap (port_left /. c1) in
           (total +. load, port_left -. (load *. c1)))
         (0.0, m) sorted)
  in
  bisect_fluid
    ~hi:(Msts.Chain.master_only_makespan (Msts.Spider.leg_chain spider 1) n)
    ~load:spider_fluid_load n

let relative_gap got want =
  if want = 0.0 then abs_float got else abs_float (got -. want) /. want

let ceil_fluid bound = int_of_float (ceil (bound -. 1e-9))

(* On one leg the port bound is (n−1)·c₁ + min_k (c₁+…+c_k + w_k), the
   capacity bound the least M with Σ_k ⌊(M − (c₁+…+c_k))/w_k⌋ ≥ n (found
   here by a linear scan), and the fluid bound the chain's bisection
   reference. *)
let single_leg_bounds_match_chain_formulas =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"spider bounds on one leg equal the chain bound formulas"
       (chain_with_n_arb ~max_p:4 ~max_n:8 ())
       (fun (chain, n) ->
         let p = Msts.Chain.length chain in
         let path k = Msts.Chain.path_latency chain k in
         let port =
           if n = 0 then 0
           else
             ((n - 1) * Msts.Chain.latency chain 1)
             + List.fold_left
                 (fun acc k -> min acc (path k + Msts.Chain.work chain k))
                 max_int (Msts.Intx.range 1 p)
         in
         let capacity_at m =
           List.fold_left
             (fun acc k ->
               acc + (max 0 (m - path k) / Msts.Chain.work chain k))
             0 (Msts.Intx.range 1 p)
         in
         let rec capacity m = if capacity_at m >= n then m else capacity (m + 1) in
         let spider = Msts.Spider.of_chain chain in
         Msts.Bounds.spider_port_bound spider n = port
         && Msts.Bounds.spider_capacity_bound spider n = capacity 0
         && relative_gap
              (Msts.Bounds.spider_fluid_bound spider n)
              (reference_chain_fluid_bound chain n)
            <= 1e-12))

let chain_fluid_matches_reference =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"chain fluid bound n/rho = the bisection reference within 1e-12"
       (chain_with_n_arb ~max_p:8 ~max_n:400 ~max_val:12 ())
       (fun (chain, n) ->
         let got = Msts.Bounds.spider_fluid_bound (Msts.Spider.of_chain chain) n
         and want = reference_chain_fluid_bound chain n in
         relative_gap got want <= 1e-12
         || QCheck.Test.fail_reportf "got %h, reference %h" got want))

let spider_fluid_matches_reference =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"spider fluid bound n/rho = the bisection reference within 1e-12"
       (spider_with_n_arb ~max_legs:6 ~max_depth:4 ~max_n:400 ~max_val:12 ())
       (fun (spider, n) ->
         let got = Msts.Bounds.spider_fluid_bound spider n
         and want = reference_spider_fluid_bound spider n in
         relative_gap got want <= 1e-12
         || QCheck.Test.fail_reportf "got %h, reference %h" got want))

let combined_bounds_match_reference =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"combined bounds = the max rebuilt from the bisection references"
       (spider_with_n_arb ~max_legs:6 ~max_depth:4 ~max_n:400 ~max_val:12 ())
       (fun (spider, n) ->
         let chain = Msts.Spider.leg_chain spider 1 in
         let leg = Msts.Spider.of_chain chain in
         let chain_want =
           max (Msts.Bounds.spider_port_bound leg n)
             (max (Msts.Bounds.spider_capacity_bound leg n)
                (ceil_fluid (reference_chain_fluid_bound chain n)))
         and spider_want =
           max (Msts.Bounds.spider_port_bound spider n)
             (max (Msts.Bounds.spider_capacity_bound spider n)
                (ceil_fluid (reference_spider_fluid_bound spider n)))
         in
         (Msts.Bounds.spider_combined_bound leg n = chain_want
         && Msts.Bounds.spider_combined_bound spider n = spider_want)
         || QCheck.Test.fail_reportf "chain %d vs %d, spider %d vs %d"
              (Msts.Bounds.spider_combined_bound leg n) chain_want
              (Msts.Bounds.spider_combined_bound spider n) spider_want))

let bounds_known_instance () =
  (* Figure 2 chain, n=5: optimal is 14 *)
  let spider = Msts.Spider.of_chain figure2_chain in
  Alcotest.(check bool) "port bound" true (Msts.Bounds.spider_port_bound spider 5 <= 14);
  Alcotest.(check bool) "port bound formula" true
    (Msts.Bounds.spider_port_bound spider 5 = (4 * 2) + 5);
  Alcotest.(check bool) "capacity bound sane" true
    (Msts.Bounds.spider_capacity_bound spider 5 <= 14);
  Alcotest.(check int) "n=0" 0 (Msts.Bounds.spider_port_bound spider 0)

let bounds_single_processor_tight () =
  (* one processor: capacity/port bounds must meet the exact optimum *)
  let chain = Msts.Chain.of_pairs [ (2, 3) ] in
  let n = 6 in
  Alcotest.(check int) "combined = optimal" (Msts.Chain_algorithm.makespan chain n)
    (Msts.Bounds.spider_combined_bound (Msts.Spider.of_chain chain) n)

(* ---------- steady state ---------- *)

let throughput_known_values () =
  (* single processor: rate = min(1/c, 1/w) *)
  let feq = Alcotest.float 1e-9 in
  Alcotest.check feq "compute bound" (1.0 /. 5.0)
    (Msts.Steady_state.chain_throughput (Msts.Chain.of_pairs [ (2, 5) ]));
  Alcotest.check feq "comm bound" (1.0 /. 4.0)
    (Msts.Steady_state.chain_throughput (Msts.Chain.of_pairs [ (4, 2) ]));
  (* figure-2 chain: rho2 = min(1/3, 1/5) = 1/5; rho1 = min(1/2, 1/3 + 1/5) *)
  Alcotest.check feq "figure 2" 0.5
    (Msts.Steady_state.chain_throughput figure2_chain)

let throughput_prefixes () =
  (* the suffix hanging from link j absorbs rho(j) *)
  let rho chain = Msts.Steady_state.chain_throughput chain in
  Alcotest.(check (Alcotest.float 1e-9)) "rho1" 0.5 (rho figure2_chain);
  Alcotest.(check (Alcotest.float 1e-9)) "rho2" 0.2
    (rho (Msts.Chain.drop_first figure2_chain))

let throughput_bounded_by_port =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"throughput never exceeds the first link rate"
       (chain_arb ~max_p:6 ())
       (fun chain ->
         Msts.Steady_state.chain_throughput chain
         <= (1.0 /. float_of_int (Msts.Chain.latency chain 1)) +. 1e-9))

let spider_rates_sum_and_cap =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"spider leg rates are capped and saturate the port correctly"
       (spider_arb ~max_legs:4 ~max_depth:3 ())
       (fun spider ->
         let rates = Msts.Steady_state.spider_leg_rates spider in
         let port_use = ref 0.0 in
         let ok = ref true in
         Array.iteri
           (fun idx rate ->
             let chain = Msts.Spider.leg_chain spider (idx + 1) in
             if rate < -1e-9 then ok := false;
             if rate > Msts.Steady_state.chain_throughput chain +. 1e-9 then
               ok := false;
             port_use :=
               !port_use +. (rate *. float_of_int (Msts.Chain.latency chain 1)))
           rates;
         !ok && !port_use <= 1.0 +. 1e-9))

let asymptotic_prediction () =
  (* optimal makespan / n approaches 1/throughput for large n *)
  let chain = figure2_chain in
  let n = 400 in
  let per_task =
    float_of_int (Msts.Chain_algorithm.makespan chain n) /. float_of_int n
  in
  let predicted = 1.0 /. Msts.Steady_state.chain_throughput chain in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f within 5%% of %.3f" per_task predicted)
    true
    (abs_float (per_task -. predicted) /. predicted < 0.05)

let asymptotic_prediction_random =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"asymptotic rate holds on random chains"
       (chain_arb ~max_p:4 ~max_val:6 ())
       (fun chain ->
         let n = 300 in
         let per_task =
           float_of_int (Msts.Chain_algorithm.makespan chain n) /. float_of_int n
         in
         let predicted = 1.0 /. Msts.Steady_state.chain_throughput chain in
         abs_float (per_task -. predicted) /. predicted < 0.10))

let suites =
  [
    ( "baseline.asap",
      [
        asap_sequences_feasible;
        asap_makespan_agrees;
        case "known single-processor pipeline" asap_known_example;
        case "bad destination rejected" asap_push_rejects_bad_dest;
        asap_spider_feasible;
      ] );
    ( "baseline.brute_force",
      [
        brute_force_schedule_witness;
        case "zero tasks" brute_force_zero;
      ] );
    ( "baseline.heuristics",
      [
        heuristics_feasible;
        spider_heuristics_feasible;
        master_only_matches_formula;
        heuristic_task_counts;
        case "seeded random policy is deterministic" random_policy_deterministic;
      ] );
    ( "baseline.bounds",
      [
        bounds_below_optimal;
        spider_bounds_below_optimal;
        spider_fluid_below_optimal;
        single_leg_bounds_match_chain_formulas;
        chain_fluid_matches_reference;
        spider_fluid_matches_reference;
        combined_bounds_match_reference;
        tree_lower_bound_matches_spider_bounds;
        case "figure-2 values" bounds_known_instance;
        case "single processor tightness" bounds_single_processor_tight;
      ] );
    ( "baseline.steady_state",
      [
        case "known throughputs" throughput_known_values;
        case "prefix throughputs" throughput_prefixes;
        throughput_bounded_by_port;
        spider_rates_sum_and_cap;
        case "asymptotic prediction (figure 2)" asymptotic_prediction;
        asymptotic_prediction_random;
      ] );
  ]
