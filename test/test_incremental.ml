(* Tests for the incremental backward construction and the
   controlled-heterogeneity generator additions. *)

open Helpers

let incremental_matches_deadline =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"incremental fill reproduces the deadline variant"
       (QCheck.make
          ~print:(fun (chain, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Chain.to_string chain) d)
          QCheck.Gen.(pair (chain_gen ~max_p:4 ()) (int_range 0 60)))
       (fun (chain, deadline) ->
         let construction = Msts.Chain_incremental.create chain ~horizon:deadline in
         let placed = Msts.Chain_incremental.fill construction () in
         placed = Msts.Chain_deadline.max_tasks chain ~deadline
         && Msts.Schedule.equal
              (Msts.Chain_incremental.schedule construction)
              (Msts.Chain_deadline.schedule chain ~deadline)))

let incremental_step_by_step () =
  (* Figure-2 chain, horizon 14: snapshots must stay feasible; count ends at 5 *)
  let construction = Msts.Chain_incremental.create figure2_chain ~horizon:14 in
  Alcotest.(check int) "empty" 0 (Msts.Chain_incremental.placed construction);
  Alcotest.(check (option int)) "no emission yet" None
    (Msts.Chain_incremental.earliest_emission construction);
  let rec grow count =
    if Msts.Chain_incremental.add_task construction then begin
      let snapshot = Msts.Chain_incremental.schedule construction in
      Alcotest.(check int) "placed" (count + 1) (Msts.Chain_incremental.placed construction);
      Alcotest.(check bool) "snapshot feasible" true
        (Feasibility_oracle.is_feasible ~require_nonnegative:true snapshot);
      Alcotest.(check bool) "snapshot fits" true (Msts.Schedule.makespan snapshot <= 14);
      grow (count + 1)
    end
    else count
  in
  let total = grow 0 in
  Alcotest.(check int) "five tasks fit in 14" 5 total;
  Alcotest.(check bool) "add_task keeps refusing" false
    (Msts.Chain_incremental.add_task construction);
  Alcotest.(check int) "earliest emission at 0" 0
    (Option.get (Msts.Chain_incremental.earliest_emission construction))

let incremental_max_tasks_cap () =
  let construction = Msts.Chain_incremental.create figure2_chain ~horizon:200 in
  Alcotest.(check int) "capped" 3 (Msts.Chain_incremental.fill construction ~max_tasks:3 ());
  (* filling again with a larger cap keeps extending the same construction *)
  Alcotest.(check int) "extended" 6 (Msts.Chain_incremental.fill construction ~max_tasks:6 ())

let incremental_rejects_negative () =
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Msts.Chain.Incremental.create: negative horizon") (fun () ->
      ignore (Msts.Chain_incremental.create figure2_chain ~horizon:(-1)))

(* ---------- spread profile / heterogeneity ---------- *)

let spread_zero_is_homogeneous () =
  let profile = Msts.Generator.spread_profile ~mean_latency:5 ~mean_work:12 ~spread:0.0 in
  let chain = Msts.Generator.chain (Msts.Prng.create 4) profile ~p:6 in
  List.iter
    (fun (c, w) ->
      Alcotest.(check int) "latency" 5 c;
      Alcotest.(check int) "work" 12 w)
    (Msts.Chain.to_pairs chain);
  Alcotest.(check (Alcotest.float 1e-9)) "CV zero" 0.0
    (Msts.Generator.heterogeneity chain)

let spread_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"spread profile brackets the mean"
       QCheck.(triple (int_range 1 20) (int_range 1 20) (int_range 0 40))
       (fun (mean_latency, mean_work, spread10) ->
         let spread = float_of_int spread10 /. 10.0 in
         let profile = Msts.Generator.spread_profile ~mean_latency ~mean_work ~spread in
         profile.Msts.Generator.latency_min >= 1
         && profile.Msts.Generator.latency_min <= mean_latency
         && profile.Msts.Generator.latency_max >= mean_latency
         && profile.Msts.Generator.work_min >= 1
         && profile.Msts.Generator.work_min <= mean_work
         && profile.Msts.Generator.work_max >= mean_work))

let heterogeneity_monotone_in_spread () =
  (* statistically: larger spread -> larger average CV *)
  let rng = Msts.Prng.create 2718 in
  let avg_cv spread =
    let acc = ref 0.0 in
    for _ = 1 to 50 do
      let profile = Msts.Generator.spread_profile ~mean_latency:6 ~mean_work:10 ~spread in
      acc := !acc +. Msts.Generator.heterogeneity (Msts.Generator.chain rng profile ~p:6)
    done;
    !acc /. 50.0
  in
  let low = avg_cv 0.3 and high = avg_cv 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "CV grows with spread (%.3f < %.3f)" low high)
    true (low < high)

let spread_rejects_bad_input () =
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Generator.spread_profile: non-positive mean") (fun () ->
      ignore (Msts.Generator.spread_profile ~mean_latency:0 ~mean_work:1 ~spread:1.0));
  Alcotest.check_raises "bad spread"
    (Invalid_argument "Generator.spread_profile: negative spread") (fun () ->
      ignore (Msts.Generator.spread_profile ~mean_latency:1 ~mean_work:1 ~spread:(-0.5)))

(* ---------- spider summary ---------- *)

let spider_summary_renders () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ] in
  let sched = Msts.Spider_algorithm.schedule_tasks spider 8 in
  let text = Msts.Metrics.summary (Msts.Plan.Spider sched) in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle text))
    [ "tasks: 8"; "master port busy"; "leg 1"; "leg 2"; "depth 1"; "max buffered" ]

let suites =
  [
    ( "chain.incremental",
      [
        incremental_matches_deadline;
        case "step-by-step snapshots" incremental_step_by_step;
        case "max_tasks cap and resumption" incremental_max_tasks_cap;
        case "negative horizon rejected" incremental_rejects_negative;
      ] );
    ( "platform.spread",
      [
        case "spread 0 is homogeneous" spread_zero_is_homogeneous;
        spread_bounds;
        case "CV grows with spread" heterogeneity_monotone_in_spread;
        case "bad inputs rejected" spread_rejects_bad_input;
      ] );
    ("schedule.spider_summary", [ case "rendering" spider_summary_renders ]);
  ]
