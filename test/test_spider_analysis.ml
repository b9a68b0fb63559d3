(* How optimal spider schedules use the platform: which legs carry the
   batch, and how busy the master's port becomes.  The helpers read the
   §7 algorithm's schedules and compare them with the bandwidth-centric
   steady state. *)

open Helpers

(* Index [l-1]: tasks routed down leg [l] in the optimal [n]-task
   schedule. *)
let tasks_per_leg spider n =
  let sched = Msts.Spider_algorithm.schedule_tasks spider n in
  Array.init (Msts.Spider.legs spider) (fun idx ->
      List.length (Msts.Spider_schedule.tasks_on_leg sched (idx + 1)))

(* Least [n <= max_n] whose optimal schedule routes a task down [leg]. *)
let leg_activation spider ~leg ~max_n =
  let rec scan n =
    if n > max_n then None
    else if (tasks_per_leg spider n).(leg - 1) > 0 then Some n
    else scan (n + 1)
  in
  scan 1

(* Busy fraction of the master's port over the optimal [n]-task
   schedule. *)
let port_utilisation spider n =
  if n = 0 then 0.0
  else
    let m =
      Msts.Metrics.of_plan (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n))
    in
    Msts.Metrics.fraction m m.port_busy

(* Per leg, the measured share of the batch over the steady-state
   share; legs with a zero steady rate give 0.0 when idle. *)
let rate_agreement spider n =
  let rates = Msts.Steady_state.spider_leg_rates spider in
  let total_rate = Array.fold_left ( +. ) 0.0 rates in
  Array.mapi
    (fun idx count ->
      let measured = float_of_int count /. float_of_int (max n 1) in
      let predicted = rates.(idx) /. total_rate in
      if predicted = 0.0 then if count = 0 then 0.0 else infinity
      else measured /. predicted)
    (tasks_per_leg spider n)

let counts_sum_to_n =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"per-leg counts sum to n"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:12 ())
       (fun (spider, n) -> Array.fold_left ( + ) 0 (tasks_per_leg spider n) = n))

let fast_leg_activates_first () =
  (* one cheap fast leg, one expensive slow leg *)
  let spider =
    Msts.Spider.of_legs
      [ Msts.Chain.of_pairs [ (1, 2) ]; Msts.Chain.of_pairs [ (8, 9) ] ]
  in
  Alcotest.(check (option int)) "fast leg at n=1" (Some 1)
    (leg_activation spider ~leg:1 ~max_n:20);
  let slow = leg_activation spider ~leg:2 ~max_n:20 in
  Alcotest.(check bool) "slow leg later (or never)" true
    (match slow with None -> true | Some n -> n > 1)

let port_utilisation_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"port utilisation lies in [0,1]"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:10 ())
       (fun (spider, n) ->
         let u = port_utilisation spider n in
         u >= 0.0 && u <= 1.0 +. 1e-9))

let port_saturates_with_cheap_legs () =
  (* compute-heavy legs behind cheap links: the port becomes the bottleneck *)
  let spider =
    Msts.Spider.of_legs
      [ Msts.Chain.of_pairs [ (3, 4) ]; Msts.Chain.of_pairs [ (3, 4) ] ]
  in
  Alcotest.(check bool) "port above 90% busy at n=60" true
    (port_utilisation spider 60 > 0.90)

let rate_agreement_converges () =
  (* both legs receive a positive bandwidth-centric rate (0.2 each): the
     compute caps bind before the port does, so the steady split is
     unique -- a tie-free instance for the agreement check *)
  let spider =
    Msts.Spider.of_legs
      [ Msts.Chain.of_pairs [ (2, 5) ]; Msts.Chain.of_pairs [ (3, 4) ] ]
  in
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "within 15%% of the steady split (%.3f)" r)
        true
        (r > 0.85 && r < 1.15))
    (rate_agreement spider 300)

let suites =
  [
    ( "spider.analysis",
      [
        counts_sum_to_n;
        case "fast leg activates first" fast_leg_activates_first;
        port_utilisation_bounds;
        case "cheap legs saturate the port" port_saturates_with_cheap_legs;
        case "split converges to the steady rates" rate_agreement_converges;
      ] );
  ]
