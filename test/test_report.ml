(* Tests for the per-resource utilization report (Msts.Obs.Report, which
   renders the Msts.Metrics record): a hand-computed instance checked field
   by field, and the exact-accounting invariant (compute + starved + idle
   = makespan on every processor) over random chains and spiders, planned
   and executed. *)

open Helpers
module Report = Msts.Obs.Report
module Metrics = Msts.Metrics

let solve problem =
  match Msts.Solve.solve problem with
  | Ok plan -> plan
  | Error msg -> Alcotest.fail msg

(* chain (c,w) = (1,2),(1,2), n=2.  The optimal plan (makespan 4):
     task 1 -> P2: master->P1 on [0,1], P1->P2 on [1,2], computes [2,4]
     task 2 -> P1: master->P1 on [1,2],                  computes [2,4]
   Master port busy [0,2]; link 1 carries both transfers ([0,1] and
   [1,2]), link 2 one ([1,2]); both processors compute 2, wait 2, never
   sit idle after their task. *)
let hand_computed_two_slave_chain () =
  let chain = Msts.Chain.of_pairs [ (1, 2); (1, 2) ] in
  let plan =
    solve
      (Msts.Solve.problem ~tasks:2 (Msts.Platform_format.Chain_platform chain))
  in
  let r = Metrics.of_plan plan in
  Alcotest.(check int) "tasks" 2 r.tasks;
  Alcotest.(check int) "makespan" 4 r.makespan;
  Alcotest.(check int) "master port busy" 2 r.port_busy;
  Alcotest.(check (float 1e-9)) "master port fraction" 0.5
    (Metrics.fraction r r.port_busy);
  (match r.nodes with
  | [| p1; p2 |] ->
      Alcotest.(check int) "link 1 busy" 2 p1.link_busy;
      Alcotest.(check int) "link 2 busy" 1 p2.link_busy;
      Alcotest.(check (float 1e-9)) "link 2 fraction" 0.25
        (Metrics.fraction r p2.link_busy);
      List.iteri
        (fun i (proc : Metrics.node) ->
          let where = Printf.sprintf "P%d" (i + 1) in
          Alcotest.(check int) (where ^ " tasks") 1 proc.tasks;
          Alcotest.(check int) (where ^ " compute") 2 proc.compute;
          Alcotest.(check int) (where ^ " starved") 2 proc.starved;
          Alcotest.(check int) (where ^ " idle") 0 proc.idle;
          Alcotest.(check (float 1e-9)) (where ^ " fraction") 0.5
            (Metrics.fraction r proc.compute))
        [ p1; p2 ]
  | nodes -> Alcotest.failf "expected 2 nodes, got %d" (Array.length nodes));
  (* the realized execution of a fault-free run reports identically *)
  let executed = Report.of_execution (Msts.Netsim.execute plan) in
  Alcotest.(check int) "executed makespan" 4 executed.makespan;
  Alcotest.(check int) "executed master port busy" 2 executed.port_busy

(* The acceptance invariant: the three-way breakdown is an exact partition
   of [0, makespan) for every processor, and no busy time or fraction can
   escape its bounds. *)
let check_accounting (r : Metrics.t) =
  let total_tasks =
    Array.fold_left (fun acc (n : Metrics.node) -> acc + n.tasks) 0 r.nodes
  in
  if total_tasks <> r.tasks then
    QCheck.Test.fail_reportf "task counts: %d placed vs %d reported"
      total_tasks r.tasks;
  if r.port_busy > r.makespan then
    QCheck.Test.fail_reportf "master port busier than the makespan";
  Array.iter
    (fun (node : Metrics.node) ->
      let parts = node.compute + node.starved + node.idle in
      if parts <> r.makespan then
        QCheck.Test.fail_reportf
          "leg %d depth %d: compute %d + starved %d + idle %d = %d <> makespan %d"
          node.address.leg node.address.depth node.compute node.starved node.idle
          parts r.makespan;
      if node.link_busy > r.makespan then
        QCheck.Test.fail_reportf "link busier than the makespan";
      List.iter
        (fun f ->
          if f < 0.0 || f > 1.0 +. 1e-9 then
            QCheck.Test.fail_reportf "fraction %f out of [0,1]" f)
        [ Metrics.fraction r node.link_busy; Metrics.fraction r node.compute ])
    r.nodes;
  true

let chain_breakdown_sums =
  QCheck.Test.make ~name:"chain report partitions the makespan exactly"
    ~count:150
    (chain_with_n_arb ~max_p:4 ~max_n:9 ())
    (fun (chain, n) ->
      let plan = Msts.Plan.Chain (Msts.Chain_algorithm.schedule chain n) in
      check_accounting (Metrics.of_plan plan)
      && check_accounting (Report.of_execution (Msts.Netsim.execute plan)))

let spider_breakdown_sums =
  QCheck.Test.make ~name:"spider report partitions the makespan exactly"
    ~count:100
    (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
    (fun (spider, n) ->
      let plan = Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n) in
      check_accounting (Metrics.of_plan plan)
      && check_accounting (Report.of_execution (Msts.Netsim.execute plan)))

let empty_report () =
  let chain = Msts.Chain.of_pairs [ (2, 3) ] in
  let r = Metrics.of_plan (Msts.Plan.Chain (Msts.Chain_algorithm.schedule chain 0)) in
  Alcotest.(check int) "tasks" 0 r.tasks;
  Alcotest.(check int) "makespan" 0 r.makespan;
  Array.iter
    (fun (node : Metrics.node) ->
      Alcotest.(check int) "no compute" 0 node.compute;
      Alcotest.(check int) "no idle on an empty horizon" 0 node.idle)
    r.nodes

let summary_and_json_shape () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ]
  in
  let plan =
    solve
      (Msts.Solve.problem ~tasks:5 (Msts.Platform_format.Spider_platform spider))
  in
  let r = Metrics.of_plan plan in
  let text = Report.summary r in
  let contains needle =
    let lh = String.length text and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary contains " ^ needle) true (contains needle))
    [ "master port"; "leg 1"; "leg 2"; "compute"; "starved" ];
  match Report.to_json r with
  | Msts.Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("json has " ^ key) true
            (List.mem_assoc key fields))
        [ "tasks"; "makespan"; "master_port"; "legs" ]
  | _ -> Alcotest.fail "to_json is not an object"

let suites =
  [
    ( "report",
      [
        case "hand-computed 2-slave chain" hand_computed_two_slave_chain;
        case "empty plan" empty_report;
        case "summary text and JSON shape" summary_and_json_shape;
        to_alcotest chain_breakdown_sums;
        to_alcotest spider_breakdown_sums;
      ] );
  ]
