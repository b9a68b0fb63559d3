(* Tests for the schedule metrics: waiting, buffering, utilisation. *)

open Helpers

let fig2 () = Msts.Chain_algorithm.schedule figure2_chain 5

(* A task's arrival (the end of its last transfer, C_P + c_P), its wait
   for the processor and its completion. *)
let timing s task =
  let chain = Msts.Schedule.chain s in
  let e = Msts.Schedule.entry s task in
  let p = e.Msts.Schedule.proc in
  let arrival = e.Msts.Schedule.comms.(p - 1) + Msts.Chain.latency chain p in
  (arrival, e.Msts.Schedule.start - arrival, e.Msts.Schedule.start + Msts.Chain.work chain p)

let waits s =
  List.init (Msts.Schedule.task_count s) (fun i ->
      let _, waiting, _ = timing s (i + 1) in
      waiting)

let timings_fig2 () =
  let s = fig2 () in
  Alcotest.(check int) "five tasks" 5 (Msts.Schedule.task_count s);
  (* task 2 (the dashed curve): arrives at 4, starts at 5 *)
  let arrival, waiting, completion = timing s 2 in
  Alcotest.(check int) "arrival" 4 arrival;
  Alcotest.(check int) "waiting" 1 waiting;
  Alcotest.(check int) "completion" 8 completion;
  (* task 1 computes immediately on arrival *)
  let _, waiting, _ = timing s 1 in
  Alcotest.(check int) "no wait" 0 waiting

let waiting_totals () =
  let s = fig2 () in
  Alcotest.(check int) "total" 1 (Msts.Metrics.total_waiting s);
  Alcotest.(check int) "max" 1 (Msts.Metrics.max_waiting s)

let waiting_nonnegative_when_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"waiting times are never negative"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         let waits = waits s in
         List.for_all (fun w -> w >= 0) waits
         && Msts.Metrics.total_waiting s = List.fold_left ( + ) 0 waits
         && Msts.Metrics.max_waiting s = List.fold_left max 0 waits))

let buffer_high_water_fig2 () =
  let s = fig2 () in
  (* only task 2 waits, for a single time unit *)
  Alcotest.(check int) "P1 buffers at most one" 1
    (Msts.Metrics.buffer_high_water s 1);
  Alcotest.(check int) "P2 no buffering" 0 (Msts.Metrics.buffer_high_water s 2)

let buffer_bounded_by_load =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"buffered tasks never exceed the tasks placed"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         List.for_all
           (fun k ->
             Msts.Metrics.buffer_high_water s k
             <= List.length (Msts.Schedule.tasks_on s k))
           (Msts.Intx.range 1 (Msts.Chain.length chain))))

let utilisation_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"utilisations are within [0,1]"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         QCheck.assume (n > 0);
         let s = Msts.Chain_algorithm.schedule chain n in
         List.for_all
           (fun k ->
             let lu = Msts.Metrics.link_utilisation s k in
             let pu = Msts.Metrics.proc_utilisation s k in
             lu >= 0.0 && lu <= 1.0 +. 1e-9 && pu >= 0.0 && pu <= 1.0 +. 1e-9)
           (Msts.Intx.range 1 (Msts.Chain.length chain))))

let first_link_saturated_for_large_n () =
  (* comm-bound chain: the master's port should be the bottleneck *)
  let chain = Msts.Chain.of_pairs [ (4, 2); (4, 2) ] in
  let s = Msts.Chain_algorithm.schedule chain 100 in
  Alcotest.(check bool) "link 1 above 95% busy" true
    (Msts.Metrics.link_utilisation s 1 > 0.95)

let summary_mentions_everything () =
  let text = Msts.Metrics.summary (fig2 ()) in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle text))
    [ "makespan: 14"; "total waiting: 1"; "P1"; "P2"; "max buffered" ]

let spider_master_utilisation () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ] in
  let s = Msts.Spider_algorithm.schedule_tasks spider 10 in
  let u = Msts.Metrics.spider_master_utilisation s in
  Alcotest.(check bool) "within bounds" true (u > 0.0 && u <= 1.0 +. 1e-9)

let suites =
  [
    ( "schedule.metrics",
      [
        case "figure-2 task timings" timings_fig2;
        case "figure-2 waiting totals" waiting_totals;
        waiting_nonnegative_when_feasible;
        case "figure-2 buffer high-water" buffer_high_water_fig2;
        buffer_bounded_by_load;
        utilisation_bounds;
        case "saturated first link" first_link_saturated_for_large_n;
        case "summary rendering" summary_mentions_everything;
        case "spider master utilisation" spider_master_utilisation;
      ] );
  ]
