(* End-to-end integration tests: the full pipelines a user of the library
   would run, crossing every module boundary. *)

open Helpers

(* generate -> schedule -> serialise -> reload -> validate -> execute *)
let full_chain_pipeline () =
  let rng = Msts.Prng.create 2024 in
  let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p:5 in
  let n = 15 in
  let sched = Msts.Chain_algorithm.schedule chain n in
  (* serialise both platform and schedule, then reload *)
  let platform_text =
    Msts.Platform_format.platform_to_string (Msts.Platform_format.Chain_platform chain)
  in
  let chain' =
    match Msts.Platform_format.of_string platform_text with
    | Ok (Msts.Platform_format.Chain_platform c) -> c
    | Ok _ -> Alcotest.fail "expected a chain platform"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "platform round-trip" true (Msts.Chain.equal chain chain');
  let sched' =
    match
      Msts.Serial.schedule_of_string chain' (Msts.Serial.schedule_to_string sched)
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "schedule round-trip" true (Msts.Schedule.equal sched sched');
  (* validate with the independent checker *)
  Alcotest.(check (list string)) "feasible" []
    (List.map Feasibility_oracle.violation_to_string
       (Feasibility_oracle.check ~require_nonnegative:true sched'));
  (* and by actual execution *)
  let report = Msts.Netsim.execute (Msts.Plan.Chain sched') in
  Alcotest.(check bool) "execution meets the plan" true
    (report.Msts.Netsim.realized_makespan <= report.Msts.Netsim.planned_makespan)

let full_spider_pipeline () =
  let rng = Msts.Prng.create 99 in
  let spider =
    Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3 ~max_depth:3
  in
  let n = 12 in
  let sched = Msts.Spider_algorithm.schedule_tasks spider n in
  Alcotest.(check int) "n tasks" n (Msts.Spider_schedule.task_count sched);
  Alcotest.(check (list string)) "feasible" []
    (Msts.Spider_schedule.check ~require_nonnegative:true sched);
  let report = Msts.Netsim.execute (Msts.Plan.Spider sched) in
  Alcotest.(check bool) "execution meets the plan" true
    (report.Msts.Netsim.realized_makespan <= report.Msts.Netsim.planned_makespan);
  (* the gantt and svg render without raising and mention the master *)
  let gantt = Msts.Plan.gantt (Msts.Plan.Spider sched) in
  Alcotest.(check bool) "gantt" true (String.length gantt > 0);
  let svg = Msts.Plan.svg (Msts.Plan.Spider sched) in
  Alcotest.(check bool) "svg" true (String.length svg > 0)

(* tree -> spider extraction -> schedule: the conclusion's "cover the graph
   with simpler structures" pipeline *)
let tree_extraction_pipeline () =
  let rng = Msts.Prng.create 7 in
  let tree =
    Msts.Generator.tree rng Msts.Generator.default_profile ~nodes:12 ~max_children:3
  in
  let n = 10 in
  let results =
    List.map
      (fun policy ->
        let spider = Msts.Tree.extract_spider policy tree in
        let makespan = Msts.Spider_algorithm.min_makespan spider n in
        let sched = Msts.Spider_algorithm.schedule_tasks spider n in
        Alcotest.(check (list string)) "feasible" []
          (Msts.Spider_schedule.check ~require_nonnegative:true sched);
        makespan)
      [ Msts.Tree.Fastest_processor; Msts.Tree.Cheapest_link; Msts.Tree.Best_rate ]
  in
  Alcotest.(check int) "three policies ran" 3 (List.length results);
  List.iter (fun m -> Alcotest.(check bool) "positive makespan" true (m > 0)) results

(* spider of one leg behaves exactly like the chain algorithm end-to-end *)
let chain_spider_consistency =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"one-leg spider schedule realises the chain schedule's makespan"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         let chain_makespan = Msts.Chain_algorithm.makespan chain n in
         let spider_sched =
           Msts.Spider_algorithm.schedule_tasks (Msts.Spider.of_chain chain) n
         in
         Msts.Spider_schedule.makespan spider_sched = chain_makespan))

(* fork platforms: Figure 6 and Figure 7 agree — the §6 expansion swept by
   the allocator accepts as many tasks as the spider algorithm fits *)
let fork_spider_consistency =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"§6 expansion + sweep count = spider algorithm on Spider.of_fork"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ()) (int_range 0 50)))
       (fun (fork, deadline) ->
         fork_max_tasks fork ~deadline ~budget:8
         = Msts.Spider_algorithm.max_tasks ~budget:8 (Msts.Spider.of_fork fork)
             ~deadline))

(* the three independent optimality routes agree: backward algorithm,
   deadline binary search, and brute force *)
let three_routes_agree =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"three independent optimum computations agree"
       (chain_with_n_arb ~max_p:3 ~max_n:6 ())
       (fun (chain, n) ->
         let a = Msts.Chain_algorithm.makespan chain n in
         let b = Msts.Chain_deadline.min_makespan_via_deadline chain n in
         let c = Msts.Brute_force.chain_makespan chain n in
         a = b && b = c))

(* CSV/table plumbing used by the bench harness *)
let experiment_table_pipeline () =
  let chain = figure2_chain in
  let t =
    Msts.Table.create ~title:"makespans" ~columns:[ "n"; "optimal"; "bound" ]
  in
  List.iter
    (fun n ->
      Msts.Table.add_row t
        (List.map string_of_int
           [ n; Msts.Chain_algorithm.makespan chain n; Msts.Bounds.spider_combined_bound (Msts.Spider.of_chain chain) n ]))
    [ 1; 2; 4; 8 ];
  let csv = Msts.Table.to_csv t in
  Alcotest.(check int) "header + 4 rows" 5
    (List.length (String.split_on_char '\n' csv))

let suites =
  [
    ( "integration",
      [
        case "chain: generate/schedule/serialise/validate/execute"
          full_chain_pipeline;
        case "spider: schedule/validate/execute/render" full_spider_pipeline;
        case "tree extraction pipeline" tree_extraction_pipeline;
        chain_spider_consistency;
        fork_spider_consistency;
        three_routes_agree;
        case "experiment table plumbing" experiment_table_pipeline;
      ] );
  ]
