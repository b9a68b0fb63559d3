(* Tests for the spider algorithm (§7): the chain→fork transformation
   (Figure 7), the five-step schedule, Theorems 2/3, and the binary search
   for the optimal makespan. *)

open Helpers

(* ---------- Figure 7 ---------- *)

(* Figure 7 read off the narrated run on the one-leg spider. *)
let figure7_trace () =
  Msts.Spider_trace.run (Msts.Spider.of_chain figure2_chain) ~deadline:14

let figure7_virtual_nodes () =
  let trace = figure7_trace () in
  Alcotest.(check int) "five tasks" 5 trace.Msts.Spider_trace.leg_tasks.(0);
  let nodes = trace.Msts.Spider_trace.virtual_nodes in
  let works =
    List.sort compare (List.map (fun v -> v.Msts.Fork_expansion.work) nodes)
  in
  (* the paper's Figure 7: processing times {12,10,8,6,3}, all comms = 2 *)
  Alcotest.(check (list int)) "virtual works" [ 3; 6; 8; 10; 12 ] works;
  List.iter
    (fun v -> Alcotest.(check int) "comm is c1" 2 v.Msts.Fork_expansion.comm)
    nodes;
  (* "the task scheduled on the second processor corresponds to the node
     with processing time 8" *)
  let row =
    List.find
      (fun a -> a.Msts.Spider_trace.virtual_work = 8)
      trace.Msts.Spider_trace.accepted
  in
  let leg_sched = Msts.Chain_deadline.schedule figure2_chain ~deadline:14 in
  Alcotest.(check int) "node 8 is the P2 task" 2
    (Msts.Schedule.proc leg_sched row.Msts.Spider_trace.leg_task)

let transform_rank_mapping () =
  let trace = figure7_trace () in
  let task_of_rank rank =
    let v =
      List.find
        (fun v -> v.Msts.Fork_expansion.rank = rank)
        trace.Msts.Spider_trace.virtual_nodes
    in
    (List.find
       (fun a -> a.Msts.Spider_trace.virtual_work = v.Msts.Fork_expansion.work)
       trace.Msts.Spider_trace.accepted)
      .Msts.Spider_trace.leg_task
  in
  (* rank 0 = latest emission = last task *)
  Alcotest.(check int) "rank 0 -> last task" 5 (task_of_rank 0);
  Alcotest.(check int) "rank 4 -> first task" 1 (task_of_rank 4)

(* ---------- spider schedules ---------- *)

let spider_schedules_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:250
       ~name:"spider deadline schedules are feasible and fit"
       (QCheck.make
          ~print:(fun (spider, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Spider.to_string spider) d)
          QCheck.Gen.(pair (spider_gen ~max_legs:3 ~max_depth:3 ()) (int_range 0 60)))
       (fun (spider, deadline) ->
         let s = Msts.Spider_algorithm.schedule spider ~deadline in
         check_spider_feasible s
         && (Msts.Spider_schedule.task_count s = 0
            || Msts.Spider_schedule.makespan s <= deadline)))

let spider_single_leg_equals_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"one-leg spider matches the chain algorithm's makespan"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         Msts.Spider_algorithm.min_makespan (Msts.Spider.of_chain chain) n
         = Msts.Chain_algorithm.makespan chain n))

let spider_optimal_vs_brute_force =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"Theorem 3: spider makespan equals brute force"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:5 ())
       (fun (spider, n) ->
         QCheck.assume (Msts.Spider.processor_count spider <= 5);
         Msts.Spider_algorithm.min_makespan spider n
         = Msts.Brute_force.spider_makespan spider n))

let spider_max_tasks_vs_brute_force =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"Theorem 3: spider deadline task count equals brute force"
       (QCheck.make
          ~print:(fun (spider, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Spider.to_string spider) d)
          QCheck.Gen.(
            pair (spider_gen ~max_legs:3 ~max_depth:2 ~max_val:8 ()) (int_range 0 40)))
       (fun (spider, deadline) ->
         QCheck.assume (Msts.Spider.processor_count spider <= 5);
         min 5 (Msts.Spider_algorithm.max_tasks ~budget:5 spider ~deadline)
         = Msts.Brute_force.max_tasks spider ~deadline ~limit:5))

let spider_schedule_tasks_exact_count =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"schedule_tasks returns exactly n tasks"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:12 ())
       (fun (spider, n) ->
         let s = Msts.Spider_algorithm.schedule_tasks spider n in
         Msts.Spider_schedule.task_count s = n
         && check_spider_feasible s
         && Msts.Spider_schedule.makespan s
            = Msts.Spider_algorithm.min_makespan spider n))

let spider_max_tasks_monotone =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider task count is monotone in the deadline"
       (QCheck.make
          ~print:(fun (spider, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Spider.to_string spider) d)
          QCheck.Gen.(pair (spider_gen ~max_legs:3 ~max_depth:2 ()) (int_range 0 50)))
       (fun (spider, d) ->
         Msts.Spider_algorithm.max_tasks spider ~deadline:d
         <= Msts.Spider_algorithm.max_tasks spider ~deadline:(d + 1)))

let spider_never_worse_than_heuristics =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"optimal spider beats forward heuristics"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:10 ())
       (fun (spider, n) ->
         let opt = Msts.Spider_algorithm.min_makespan spider n in
         let tree = Msts.Tree.of_spider spider in
         List.for_all
           (fun (_, policy) -> opt <= Msts.Tree_heuristics.makespan policy tree n)
           Msts.Tree_heuristics.spider_policies))

let spider_makespan_monotone_in_n =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider optimal makespan is monotone in n"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:8 ())
       (fun (spider, n) ->
         Msts.Spider_algorithm.min_makespan spider n
         <= Msts.Spider_algorithm.min_makespan spider (n + 1)))

let spider_more_legs_help =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"adding a leg never hurts the makespan"
       (QCheck.make
          ~print:(fun ((spider, chain), n) ->
            Printf.sprintf "%s + %s, n=%d" (Msts.Spider.to_string spider)
              (Msts.Chain.to_string chain) n)
          QCheck.Gen.(
            pair
              (pair (spider_gen ~max_legs:2 ~max_depth:2 ()) (chain_gen ~max_p:2 ()))
              (int_range 0 8)))
       (fun ((spider, extra_leg), n) ->
         let legs =
           List.init (Msts.Spider.legs spider) (fun idx ->
               Msts.Spider.leg_chain spider (idx + 1))
         in
         let bigger = Msts.Spider.of_legs (legs @ [ extra_leg ]) in
         Msts.Spider_algorithm.min_makespan bigger n
         <= Msts.Spider_algorithm.min_makespan spider n))

(* differential check of the binary search: a plain linear scan over
   deadlines must find the same least feasible one *)
let min_makespan_vs_linear_scan =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"binary search agrees with a linear deadline scan"
       (spider_with_n_arb ~max_legs:2 ~max_depth:2 ~max_n:5 ~max_val:6 ())
       (fun (spider, n) ->
         QCheck.assume (n > 0);
         let by_search = Msts.Spider_algorithm.min_makespan spider n in
         let rec scan d =
           if Msts.Spider_algorithm.max_tasks ~budget:n spider ~deadline:d >= n then d
           else scan (d + 1)
         in
         by_search = scan 0))

(* the model is integer-exact at large magnitudes too (63-bit headroom) *)
let large_values_no_overflow () =
  let big = 1_000_000 in
  let chain = Msts.Chain.of_pairs [ (2 * big, 3 * big); (3 * big, 5 * big) ] in
  let s = Msts.Chain_algorithm.schedule chain 5 in
  (* exactly the Figure-2 schedule scaled by one million *)
  Alcotest.(check int) "scaled makespan" (14 * big) (Msts.Schedule.makespan s);
  Alcotest.(check bool) "feasible" true
    (Feasibility_oracle.is_feasible ~require_nonnegative:true s);
  let many = Msts.Chain_algorithm.makespan (Msts.Chain.of_pairs [ (big, big) ]) 100_000 in
  Alcotest.(check bool) "hundred thousand tasks" true (many > 0)

let spider_zero_tasks () =
  let spider = Msts.Spider.of_legs [ figure2_chain ] in
  Alcotest.(check int) "0 tasks -> makespan 0" 0
    (Msts.Spider_algorithm.min_makespan spider 0);
  Alcotest.(check int) "0 tasks -> empty schedule" 0
    (Msts.Spider_schedule.task_count (Msts.Spider_algorithm.schedule_tasks spider 0))

let spider_rejects_negative () =
  let spider = Msts.Spider.of_legs [ figure2_chain ] in
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Spider algorithm: negative deadline") (fun () ->
      ignore (Msts.Spider_algorithm.schedule spider ~deadline:(-1)));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Spider algorithm: negative task count") (fun () ->
      ignore (Msts.Spider_algorithm.min_makespan spider (-1)))

(* Leg 1's master-only makespan for 2^60 tasks, 2 + (2^60 − 1)·19 + 19,
   passes max_int; leg 2's alone would fit.  On leg 1 alone the last
   count bounded is [edge]. *)
let spider_rejects_overflow () =
  let leg1 = Msts.Chain.of_pairs [ (2, 19) ] in
  let spider = Msts.Spider.of_legs [ leg1; Msts.Chain.of_pairs [ (1, 1) ] ] in
  let refused n =
    Invalid_argument
      (Printf.sprintf
         "Spider algorithm: %d tasks: a leg's master-only makespan exceeds max_int" n)
  in
  let n = 1 lsl 60 in
  Alcotest.check_raises "upper bound" (refused n) (fun () ->
      ignore (Msts.Spider_algorithm.makespan_upper_bound spider n));
  Alcotest.check_raises "search" (refused n) (fun () ->
      ignore (Msts.Spider_algorithm.min_makespan spider n));
  let edge = ((max_int - 21) / 19) + 1 in
  Alcotest.(check int) "last bounded count" (2 + ((edge - 1) * 19) + 19)
    (Msts.Spider_algorithm.makespan_upper_bound (Msts.Spider.of_chain leg1) edge);
  Alcotest.check_raises "one past it" (refused (edge + 1)) (fun () ->
      ignore
        (Msts.Spider_algorithm.makespan_upper_bound (Msts.Spider.of_chain leg1)
           (edge + 1)))

let spider_emission_earlier_than_leg_plan =
  (* Lemma 3: the fork allocator never delays a first emission *)
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"Lemma 3: emissions only move earlier"
       (QCheck.make
          ~print:(fun (spider, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Spider.to_string spider) d)
          QCheck.Gen.(pair (spider_gen ~max_legs:3 ~max_depth:2 ()) (int_range 0 40)))
       (fun (spider, deadline) ->
         let s = Msts.Spider_algorithm.schedule spider ~deadline in
         (* each task still completes by the deadline after the re-stamp,
            and its first emission leaves room for c1 + remaining work *)
         Array.for_all
           (fun (e : Schedule_reference.Spider_schedule.entry) ->
             let chain = Msts.Spider.leg_chain spider e.address.Msts.Spider.leg in
             e.comms.(0) + Msts.Chain.latency chain 1 <= deadline)
           (Schedule_reference.spider_rows s)))

let suites =
  [
    ( "spider.figure7",
      [
        case "virtual nodes reproduce Figure 7" figure7_virtual_nodes;
        case "rank-to-task mapping" transform_rank_mapping;
      ] );
    ( "spider.schedule",
      [
        spider_schedules_feasible;
        spider_schedule_tasks_exact_count;
        spider_max_tasks_monotone;
        spider_makespan_monotone_in_n;
        spider_more_legs_help;
        min_makespan_vs_linear_scan;
        case "large values do not overflow" large_values_no_overflow;
        case "zero tasks" spider_zero_tasks;
        case "negative inputs rejected" spider_rejects_negative;
        case "overflowing task counts rejected" spider_rejects_overflow;
        spider_emission_earlier_than_leg_plan;
      ] );
    ( "spider.optimality",
      [
        spider_single_leg_equals_chain;
        spider_optimal_vs_brute_force;
        spider_max_tasks_vs_brute_force;
        spider_never_worse_than_heuristics;
      ] );
  ]
