(* Plans are stored as int columns (Msts.Columns).  These tests hold every
   producer's plans to the record layout they replaced, frozen in
   test/schedule_reference.ml, and gate the words a stored plan keeps. *)

open Helpers
module Ref = Schedule_reference
module Schedule = Msts.Schedule
module S = Msts.Spider_schedule
module Plan = Msts.Plan
module Spider = Msts.Spider

(* ---------- the reference copy, read through the column accessors ---------- *)

let agree what ok = if not ok then QCheck.Test.fail_reportf "%s differs from the reference" what

let solved_line plan =
  let reply = Msts.Api.Solved { plan; deadline = None } in
  agree "Api.response_line"
    (Msts.Api.response_line ~id:(Some 7) ~trace:None (Ok reply)
    = Api_reference.response_to_line
        { Msts.Api.id = Some 7; trace = None; result = Ok (Api_reference.json_of_reply reply) })

(* Everything a spider plan answers, against the record layout [r]. *)
let spider_agrees sched (r : Ref.Spider_schedule.t) =
  agree "entries" (Ref.spider_rows sched = Ref.Spider_schedule.entries r);
  agree "makespan" (S.makespan sched = Ref.Spider_schedule.makespan r);
  for l = 1 to Spider.legs (S.spider sched) do
    agree "tasks_on_leg" (S.tasks_on_leg sched l = Ref.Spider_schedule.tasks_on_leg r l);
    let leg = S.leg_schedule sched l and leg_ref = Ref.Spider_schedule.leg_schedule r l in
    agree "leg_schedule"
      (Ref.chain_rows leg = Ref.Schedule.entries leg_ref
      && Schedule.to_string leg = Ref.Schedule.to_string leg_ref)
  done;
  List.iter
    (fun require_nonnegative ->
      agree "violations"
        (S.violations ~require_nonnegative sched
        = Ref.Spider_schedule.violations ~require_nonnegative r))
    [ false; true ];
  agree "to_string" (S.to_string sched = Ref.Spider_schedule.to_string r);
  agree "Serial"
    (Msts.Serial.spider_schedule_to_string sched = Ref.Serial.spider_schedule_to_string r
    && Msts.Serial.spider_schedule_to_csv sched = Ref.Serial.spider_schedule_to_csv r)

let chain_agrees sched =
  let r = Ref.of_chain_plan sched in
  agree "chain makespan" (Schedule.makespan sched = Ref.Schedule.makespan r);
  for k = 1 to Msts.Chain.length (Schedule.chain sched) do
    agree "tasks_on" (Schedule.tasks_on sched k = Ref.Schedule.tasks_on r k)
  done;
  agree "chain to_string" (Schedule.to_string sched = Ref.Schedule.to_string r);
  agree "chain Serial"
    (Msts.Serial.schedule_to_string sched = Ref.Serial.schedule_to_string r
    && Msts.Serial.schedule_to_csv sched = Ref.Serial.schedule_to_csv r);
  (* the spider view shares the chain's columns *)
  spider_agrees (Plan.to_spider (Plan.Chain sched)) (Ref.Spider_schedule.of_chain_schedule r)

(* One task's start and one of its emissions moved, in both layouts, so
   the audit has violations to spell. *)
let perturbed sched rng =
  let rows = Ref.spider_rows sched in
  let n = Array.length rows in
  if n = 0 then ()
  else begin
    let i = Msts.Prng.int rng n in
    let e = rows.(i) in
    let comms = Array.copy e.comms in
    let k = Msts.Prng.int rng (Array.length comms) in
    comms.(k) <- comms.(k) + Msts.Prng.int_in rng (-4) 4;
    rows.(i) <- { e with start = e.start + Msts.Prng.int_in rng (-4) 4; comms };
    let spider = S.spider sched in
    spider_agrees (Ref.spider_plan spider rows) (Ref.Spider_schedule.make spider rows)
  end

let plan_agrees plan rng =
  (match plan with
  | Plan.Chain sched -> chain_agrees sched
  | Plan.Spider sched -> spider_agrees sched (Ref.of_spider_plan sched));
  solved_line plan;
  perturbed (Plan.to_spider plan) rng

(* ---------- the producers ---------- *)

(* An online session on leg 1 through freezes, an extension, more
   arrivals and a degradation (refused when its processor holds frozen
   work), then frozen some more. *)
let online_session spider n rng =
  let module Online = Msts_online.Online in
  let chain = Spider.leg_chain spider 1 in
  let o = Online.create chain ~deadline:(4 * (n + 1)) in
  ignore (Online.submit o n);
  ignore (Online.advance o ~time:(Msts.Prng.int rng (2 * (n + 1))));
  ignore (Online.extend o ~deadline:(Online.deadline o + Msts.Prng.int rng 8));
  ignore (Online.submit o 2);
  ignore (Online.advance o ~time:(Online.frontier o + Msts.Prng.int rng 4));
  ignore
    (Online.degrade o ~at:(1 + Msts.Prng.int rng (Msts.Chain.length chain)) ~work_factor:2);
  ignore (Online.advance o ~time:(Online.frontier o + Msts.Prng.int rng 8));
  o

let covers = Msts.Tree.[| Fastest_processor; Cheapest_link; Best_rate |]

let producers =
  [|
    ("chain kernel", fun spider n _ -> Plan.Chain (Msts.Chain_algorithm.schedule (Spider.leg_chain spider 1) n));
    ( "chain stepped",
      fun spider n _ ->
        Plan.Chain (Msts.Chain_algorithm.schedule ~on_step:ignore (Spider.leg_chain spider 1) n) );
    ( "incremental",
      fun spider n _ ->
        let chain = Spider.leg_chain spider 1 in
        let inc =
          Msts.Chain_incremental.create chain ~horizon:(Msts.Chain_algorithm.makespan chain n)
        in
        ignore (Msts.Chain_incremental.fill inc ~max_tasks:n ());
        Plan.Chain (Msts.Chain_incremental.schedule inc) );
    ("online plan", fun spider n rng -> Msts_online.Online.plan (online_session spider n rng));
    ( "online frozen",
      fun spider n rng ->
        Plan.Chain (Msts_online.Online.frozen_schedule (online_session spider n rng)) );
    ("spider ceiling", fun spider n _ -> Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n));
    ( "spider deadline",
      fun spider n _ ->
        Plan.Spider
          (Msts.Spider_algorithm.schedule spider
             ~deadline:(Msts.Spider_algorithm.min_makespan spider n + 3)) );
    ( "tree",
      fun spider n rng ->
        let flat = Msts.Tree_flat.of_tree (Msts.Tree.of_spider spider) in
        let seq =
          Array.init n (fun _ -> 1 + Msts.Prng.int rng (Msts.Tree_flat.node_count flat))
        in
        Plan.Spider (Msts.Tree_schedule.to_spider spider (Msts.Asap.of_sequence flat seq)) );
    ( "tree cover",
      fun spider n rng ->
        let policy = covers.(Msts.Prng.int rng (Array.length covers)) in
        let cover = Msts.Tree_heuristics.spider_cover policy (Msts.Tree.of_spider spider) n in
        Plan.Spider (Msts.Tree_schedule.to_spider spider cover) );
    ( "netsim observed",
      fun spider n rng ->
        let plan = Msts.Spider_algorithm.schedule_tasks spider n in
        let trace =
          Msts.Fault.random rng spider ~events:3 ~horizon:(max 1 (S.makespan plan))
        in
        Plan.Spider (Msts.Netsim.replay_under_faults ~trace plan).observed );
    ( "replan concat",
      fun spider n rng ->
        let plan = Msts.Spider_algorithm.schedule_tasks spider n in
        let trace =
          Msts.Fault.random rng spider ~events:4 ~horizon:(max 1 (S.makespan plan))
        in
        Plan.Spider
          (Option.value (Msts.Replan.replay ~trace plan).final_intent ~default:plan) );
    ( "serial parse",
      fun spider n _ ->
        let plan = Msts.Spider_algorithm.schedule_tasks spider n in
        Plan.Spider
          (Result.get_ok
             (Msts.Serial.spider_schedule_of_string spider
                (Msts.Serial.spider_schedule_to_string plan))) );
    ( "chain serial parse",
      fun spider n _ ->
        let chain = Spider.leg_chain spider 1 in
        let plan = Msts.Chain_algorithm.schedule chain n in
        Plan.Chain
          (Result.get_ok
             (Msts.Serial.schedule_of_string chain (Msts.Serial.schedule_to_string plan))) );
  |]

let every_producer_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"plans of every producer = the frozen record layout"
       QCheck.(
         triple
           (spider_arb ~max_legs:3 ~max_depth:3 ())
           (int_range 0 12)
           (pair (int_range 0 (Array.length producers - 1)) small_nat))
       (fun (spider, n, (which, seed)) ->
         let rng = Msts.Prng.create seed in
         let name, produce = producers.(which) in
         match produce spider n rng with
         | plan ->
             plan_agrees plan rng;
             true
         | exception Invalid_argument msg ->
             (* a fault trace may kill every processor with tasks left *)
             if name = "netsim observed" || name = "replan concat" then true
             else QCheck.Test.fail_reportf "%s: %s" name msg))

(* ---------- retained words ---------- *)

(* Words a plan keeps beyond its platform's, per task. *)
let words_per_task plan platform_words =
  float_of_int (Obj.reachable_words (Obj.repr plan) - platform_words)
  /. float_of_int (Plan.task_count plan)

(* The serve benchmark's cold-solve plan shape (the spider of
   bench/timing.ml's spider_plan stage) and a 4-processor chain hold at
   most 5 words a task: 3 + depth in four int columns (4.69 on the
   spider), 2 + P(i) in three on a chain (4.15).  The record layout kept
   10.64 and 8.15.  A tree cover keeps 3 + depth words a task in its four
   columns and 16 words over them (4.40 a task on a 12-node tree, against
   7.38 for the record layout).  An online session's frozen store grows,
   when one advance freezes a whole plan, to exactly its four columns:
   3 + P(i) words a task (arrival id, start, offset, vector) and 8 words
   over them (5.15 a task on the chain, against 9.20 for a record and a
   vector a task).  Freezes spread over many advances can leave up to
   half of each column as room, as any doubling buffer does. *)
let retained_words () =
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs:4 ~max_depth:3
  in
  let plan = Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider 192) in
  let spider_words = words_per_task plan (Obj.reachable_words (Obj.repr spider)) in
  let chain = Msts.Generator.chain (Msts.Prng.create 7) Msts.Generator.default_profile ~p:4 in
  let plan = Plan.Chain (Msts.Chain_algorithm.schedule chain 2000) in
  let chain_words = words_per_task plan (Obj.reachable_words (Obj.repr chain)) in
  List.iter
    (fun (what, words) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %.2f words a task <= 5" what words) true
        (words <= 5.0))
    [ ("spider plan", spider_words); ("chain plan", chain_words) ];
  let bounded what ~words ~bound =
    Alcotest.(check bool) (Printf.sprintf "%s: %d words <= %d" what words bound) true
      (words <= bound)
  in
  let tree =
    Msts.Generator.tree (Msts.Prng.create 7) Msts.Generator.default_profile ~nodes:12
      ~max_children:3
  in
  let n = 400 in
  let cover = Msts.Tree_heuristics.spider_cover Msts.Tree.Best_rate tree n in
  let flat = Msts.Tree_schedule.flat cover in
  let depths =
    List.fold_left
      (fun acc i ->
        acc + (Msts.Tree_flat.info flat (Msts.Tree_schedule.node cover i)).Msts.Tree_flat.depth)
      0 (Msts.Intx.range 1 n)
  in
  bounded "tree cover"
    ~words:(Obj.reachable_words (Obj.repr cover) - Obj.reachable_words (Obj.repr flat))
    ~bound:((3 * n) + depths + 16);
  let module Online = Msts_online.Online in
  let m = 500 in
  let deadline = Msts.Chain_algorithm.makespan chain m in
  let o = Online.create ~capacity:m chain ~deadline in
  ignore (Online.submit o m);
  let placed = Obj.reachable_words (Obj.repr o) in
  ignore (Online.advance o ~time:(deadline + 1));
  let frozen = Online.frozen_schedule o in
  let procs =
    List.fold_left (fun acc i -> acc + Schedule.proc frozen i) 0 (Msts.Intx.range 1 m)
  in
  Alcotest.(check int) "every task frozen" m (Online.frozen o);
  bounded "online frozen store"
    ~words:(Obj.reachable_words (Obj.repr o) - placed)
    ~bound:((3 * m) + procs + 8)

(* The view shares the chain's columns: it adds the one-leg spider and a
   record, whatever the task count. *)
let chain_view_shares_columns () =
  let chain = Msts.Generator.chain (Msts.Prng.create 7) Msts.Generator.default_profile ~p:4 in
  let sched = Msts.Chain_algorithm.schedule chain 500 in
  let view = Plan.to_spider (Plan.Chain sched) in
  Alcotest.(check bool) "same columns" true (S.columns view == Schedule.columns sched);
  Alcotest.(check bool) "view words" true
    (Obj.reachable_words (Obj.repr (sched, view)) - Obj.reachable_words (Obj.repr sched) <= 16)

(* A tree cover of a spider's tree, read as the spider's plan: only the
   leg column is new (n + 1 words), with the plan's two records. *)
let tree_cover_view_shares_columns () =
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs:4 ~max_depth:3
  in
  let n = 192 in
  let cover = Msts.Tree_heuristics.spider_cover Msts.Tree.Best_rate (Msts.Tree.of_spider spider) n in
  let view = Msts.Tree_schedule.to_spider spider cover in
  Alcotest.(check int) "every task" n (S.task_count view);
  let words = Obj.reachable_words (Obj.repr (cover, spider, view)) in
  let base = Obj.reachable_words (Obj.repr (cover, spider)) in
  Alcotest.(check bool) (Printf.sprintf "view words %d <= n + 12" (words - base)) true
    (words - base <= n + 12)

(* A plan cut in two by [filter_tasks] and spliced back by [concat] is
   the plan, task by task: a slip in either shows where the splice is
   built, not where it is next read. *)
let splice_is_the_plan =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"concat of a plan's two parts is the plan"
       QCheck.(
         triple (spider_arb ~max_legs:3 ~max_depth:3 ()) (int_range 0 12) (int_range 0 12))
       (fun (spider, n, k) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let spliced =
           S.concat
             (S.filter_tasks plan ~keep:(fun i -> i <= k))
             (S.filter_tasks plan ~keep:(fun i -> i > k))
         in
         S.equal spliced plan && Ref.spider_rows spliced = Ref.spider_rows plan))

(* The constructor refuses columns that do not describe a schedule. *)
let of_columns_refuses () =
  let spider = Spider.of_legs [ Msts.Chain.of_pairs [ (1, 2); (1, 2) ]; Msts.Chain.of_pairs [ (2, 1) ] ] in
  let build ~legs ~offsets ~emissions =
    S.of_columns spider ~legs ~starts:(Array.make (Array.length legs) 5) ~offsets ~emissions
  in
  let refuses what msg ~legs ~offsets ~emissions =
    Alcotest.check_raises what (Invalid_argument ("Spider_schedule.of_columns: " ^ msg))
      (fun () -> ignore (build ~legs ~offsets ~emissions))
  in
  refuses "offsets past the emissions" "offsets run from 0 to 3 over 2 emissions" ~legs:[| 1 |]
    ~offsets:[| 0; 3 |] ~emissions:[| 0; 1 |];
  refuses "offsets out of order" "task 2 at depth -1 on leg 1" ~legs:[| 1; 1 |]
    ~offsets:[| 0; 2; 1 |] ~emissions:[| 0 |];
  refuses "a leg the spider lacks" "task 1 on leg 3" ~legs:[| 3 |] ~offsets:[| 0; 1 |]
    ~emissions:[| 0 |];
  refuses "deeper than the leg" "task 2 at depth 2 on leg 2" ~legs:[| 1; 2 |]
    ~offsets:[| 0; 1; 3 |] ~emissions:[| 0; 1; 2 |];
  refuses "an empty vector" "task 1 at depth 0 on leg 1" ~legs:[| 1 |] ~offsets:[| 0; 0 |]
    ~emissions:[||];
  let sched = build ~legs:[| 2; 1 |] ~offsets:[| 0; 1; 3 |] ~emissions:[| 0; 1; 2 |] in
  Alcotest.(check (list int)) "legs and depths" [ 2; 1; 1; 2 ]
    [ S.leg sched 1; S.depth sched 1; S.leg sched 2; S.depth sched 2 ];
  Alcotest.check_raises "a hop past the depth"
    (Invalid_argument "Spider_schedule.emission: hop 3 of task 2 outside 1..2") (fun () ->
      ignore (S.emission sched 2 3));
  let one_leg = Spider.of_legs [ Msts.Chain.of_pairs [ (1, 2); (1, 2) ] ] in
  let sched =
    S.of_columns one_leg ~legs:[| 1; 1 |] ~starts:[| 5; 6 |] ~offsets:[| 0; 1; 3 |]
      ~emissions:[| 0; 1; 2 |]
  in
  Alcotest.(check int) "a one-leg spider keeps no leg column" 0
    (Array.length (S.columns sched).Msts.Columns.legs)

let suites =
  [
    ( "schedule.columns",
      [
        every_producer_matches_reference;
        case "retained words per task" retained_words;
        case "a chain's spider view shares its columns" chain_view_shares_columns;
        case "a tree cover's spider view shares its columns" tree_cover_view_shares_columns;
        splice_is_the_plan;
        case "of_columns refuses malformed columns" of_columns_refuses;
      ] );
  ]
