(* Tests for the chain-usage analysis module. *)

open Helpers

let counts_sum_to_n =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"per-processor counts sum to n"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         Array.fold_left ( + ) 0 (Msts.Chain_analysis.tasks_per_processor chain n) = n))

let counts_match_schedule =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"counts agree with the schedule's task lists"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         let counts = Msts.Chain_analysis.tasks_per_processor chain n in
         let sched = Msts.Chain_algorithm.schedule chain n in
         List.for_all
           (fun k -> counts.(k - 1) = List.length (Msts.Schedule.tasks_on sched k))
           (Msts.Intx.range 1 (Msts.Chain.length chain))))

let figure2_profile () =
  (* measured once, pinned: P2 activates at n=3; at n=5 the split is 4/1 *)
  Alcotest.(check (option int)) "P2 activation" (Some 3)
    (Msts.Chain_analysis.activation_threshold figure2_chain ~k:2 ~max_n:20);
  Alcotest.(check (list int)) "n=5 split" [ 4; 1 ]
    (Array.to_list (Msts.Chain_analysis.tasks_per_processor figure2_chain 5));
  Alcotest.(check int) "depth at n=2" 1 (Msts.Chain_analysis.used_depth figure2_chain 2);
  Alcotest.(check int) "depth at n=3" 2 (Msts.Chain_analysis.used_depth figure2_chain 3);
  Alcotest.(check int) "depth at n=0" 0 (Msts.Chain_analysis.used_depth figure2_chain 0)

let activation_none_when_useless () =
  (* second processor behind a hopeless link never activates in range *)
  let chain = Msts.Chain.of_pairs [ (1, 2); (50, 1) ] in
  Alcotest.(check (option int)) "never used" None
    (Msts.Chain_analysis.activation_threshold chain ~k:2 ~max_n:15)

let activation_bad_k () =
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Analysis.activation_threshold: processor out of range")
    (fun () ->
      ignore (Msts.Chain_analysis.activation_threshold figure2_chain ~k:3 ~max_n:5))

(* [n / (makespan(n) · ρ)]: 1.0 means the batch already runs at the
   steady-state rate, small values mean start-up and wind-down dominate. *)
let efficiency chain n =
  Msts.Bounds.spider_fluid_bound (Msts.Spider.of_chain chain) n
  /. float_of_int (Msts.Chain_algorithm.makespan chain n)

let efficiency_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"efficiency lies in (0, 1] and grows with n"
       (chain_arb ~max_p:4 ~max_val:8 ())
       (fun chain ->
         let e20 = efficiency chain 20 in
         let e200 = efficiency chain 200 in
         e20 > 0.0 && e200 <= 1.0 +. 1e-9 && e200 >= e20 -. 0.05))

let efficiency_approaches_one () =
  Alcotest.(check bool) "n=2000 within 1% of the rate" true
    (efficiency figure2_chain 2000 > 0.99)

let suites =
  [
    ( "chain.analysis",
      [
        counts_sum_to_n;
        counts_match_schedule;
        case "figure-2 activation profile" figure2_profile;
        case "hopeless processors never activate" activation_none_when_useless;
        case "bad processor index" activation_bad_k;
        efficiency_bounds;
        case "efficiency approaches 1" efficiency_approaches_one;
      ] );
  ]
