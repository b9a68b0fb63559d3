(* Mid-run fault injection and online replanning: trace parsing, the
   dynamic platform state, the faulty executor's semantics against
   hand-computed scenarios, and the differential/refinement properties
   tying it back to the fault-free oracles. *)

open Helpers

let figure2_spider =
  Msts.Spider.of_legs
    [ figure2_chain; Msts.Chain.of_pairs [ (1, 4); (2, 6); (1, 3) ] ]

let addr leg depth = { Msts.Spider.leg; depth }

(* ---------- trace parsing and validation ---------- *)

let parse_round_trip () =
  let text = "0 crash 2 1\n# comment\n\n5 slow-proc 1 2 3\n5 drop 2 2 4\n2 slow-link 1 1 2\n" in
  match Msts.Fault.parse text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok trace ->
      Alcotest.(check int) "four events" 4 (List.length trace);
      (* normalized: sorted by time, stable *)
      Alcotest.(check (list int)) "times sorted" [ 0; 2; 5; 5 ]
        (List.map (fun t -> t.Msts.Fault.at) trace);
      (match Msts.Fault.parse (Msts.Fault.to_string trace) with
      | Ok again -> Alcotest.(check bool) "round trip" true (again = trace)
      | Error msg -> Alcotest.failf "re-parse failed: %s" msg)

let parse_rejects_garbage () =
  let bad text =
    match Msts.Fault.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error _ -> ()
  in
  bad "x crash 1 1";
  bad "-3 crash 1 1";
  bad "5 crash 1";
  bad "5 slow-proc 1 2";
  bad "5 meteor 1 1"

let validate_catches_problems () =
  let trace =
    [
      { Msts.Fault.at = 0; event = Msts.Fault.Crash_proc (addr 9 1) };
      {
        Msts.Fault.at = 1;
        event = Msts.Fault.Slow_proc { address = addr 1 2; factor = 0 };
      };
      {
        Msts.Fault.at = 2;
        event = Msts.Fault.Drop_transfer { address = addr 2 9; penalty = -1 };
      };
    ]
  in
  (* the drop is doubly wrong: bad address and negative penalty *)
  Alcotest.(check int) "four problems" 4
    (List.length (Msts.Fault.validate figure2_spider trace));
  Alcotest.(check (list string)) "clean trace" []
    (Msts.Fault.validate figure2_spider
       [ { Msts.Fault.at = 3; event = Msts.Fault.Crash_proc (addr 1 2) } ])

let random_traces_validate =
  to_alcotest
    (QCheck.Test.make ~count:100 ~name:"random traces validate and keep one survivor"
       QCheck.(pair (spider_arb ~max_legs:3 ~max_depth:3 ()) small_nat)
       (fun (spider, seed) ->
         let rng = Msts.Prng.create seed in
         let trace = Msts.Fault.random rng spider ~events:6 ~horizon:40 in
         if Msts.Fault.validate spider trace <> [] then
           QCheck.Test.fail_report "generated trace does not validate";
         (* folding every event in must leave at least one processor *)
         let state = Msts.Fault.init spider in
         List.iter (fun t -> Msts.Fault.apply state t.Msts.Fault.event) trace;
         List.exists
           (fun l -> Msts.Fault.alive_depth state ~leg:l >= 1)
           (List.init (Msts.Spider.legs spider) (fun i -> i + 1))))

(* ---------- dynamic state and residual platforms ---------- *)

let state_bookkeeping () =
  let state = Msts.Fault.init figure2_spider in
  Alcotest.(check int) "initial factor" 1 (Msts.Fault.proc_factor state (addr 2 2));
  Msts.Fault.apply state
    (Msts.Fault.Slow_proc { address = addr 2 2; factor = 3 });
  Msts.Fault.apply state
    (Msts.Fault.Slow_proc { address = addr 2 2; factor = 2 });
  Alcotest.(check int) "slowdowns compound" 6
    (Msts.Fault.proc_factor state (addr 2 2));
  Msts.Fault.apply state (Msts.Fault.Crash_proc (addr 2 3));
  Alcotest.(check int) "leg truncated" 2 (Msts.Fault.alive_depth state ~leg:2);
  Msts.Fault.apply state (Msts.Fault.Crash_proc (addr 2 1));
  Alcotest.(check int) "crashes never resurrect" 0
    (Msts.Fault.alive_depth state ~leg:2);
  Alcotest.(check bool) "dead" false (Msts.Fault.is_alive state (addr 2 1));
  Alcotest.(check bool) "other leg untouched" true
    (Msts.Fault.is_alive state (addr 1 2))

let residual_platform () =
  let state = Msts.Fault.init figure2_spider in
  Msts.Fault.apply state (Msts.Fault.Crash_proc (addr 1 1));
  Msts.Fault.apply state
    (Msts.Fault.Slow_proc { address = addr 2 1; factor = 2 });
  (match Msts.Fault.residual state with
  | None -> Alcotest.fail "leg 2 survives"
  | Some (survivor, leg_map) ->
      Alcotest.(check int) "one leg left" 1 (Msts.Spider.legs survivor);
      Alcotest.(check (array int)) "maps back to leg 2" [| 2 |] leg_map;
      Alcotest.(check int) "slowdown folded into work" 8
        (Msts.Spider.work survivor (addr 1 1));
      Alcotest.(check int) "latency untouched" 1
        (spider_latency survivor (addr 1 1)));
  Msts.Fault.apply state (Msts.Fault.Crash_proc (addr 2 1));
  Alcotest.(check bool) "nothing left" true (Msts.Fault.residual state = None)

(* ---------- executor semantics on hand-computed scenarios ---------- *)

(* One task on a single processor (c=1, w=2): emission [0,1), execution
   [1,3).  A slowdown at t=2 doubles the remaining 1 unit: completion 4. *)
let slowdown_stretches_in_flight () =
  let spider = Msts.Spider.of_chain (Msts.Chain.of_pairs [ (1, 2) ]) in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 1 in
  let trace =
    [
      {
        Msts.Fault.at = 2;
        event = Msts.Fault.Slow_proc { address = addr 1 1; factor = 2 };
      };
    ]
  in
  let r = Msts.Netsim.replay_under_faults ~trace plan in
  Alcotest.(check int) "stretched completion" 4 r.Msts.Netsim.observed_makespan;
  (* at t=1 — the execution's grant instant — the factor applies in full *)
  let trace0 =
    [
      {
        Msts.Fault.at = 1;
        event = Msts.Fault.Slow_proc { address = addr 1 1; factor = 2 };
      };
    ]
  in
  let r0 = Msts.Netsim.replay_under_faults ~trace:trace0 plan in
  Alcotest.(check int) "full execution doubled" 5 r0.Msts.Netsim.observed_makespan

(* Chain (2,1),(3,1), one task to depth 2: port [0,2), hop 2 [2,5),
   execution [5,6).  A drop at t=3 aborts the hop; with penalty 1 the task
   re-requests at t=4: hop [4,7), execution [7,8). *)
let drop_retries_after_backoff () =
  let spider = Msts.Spider.of_chain (Msts.Chain.of_pairs [ (2, 1); (3, 1) ]) in
  let plan =
    Schedule_reference.spider_plan spider
      [| { Schedule_reference.Spider_schedule.address = addr 1 2; start = 5; comms = [| 0; 2 |] } |]
  in
  let trace =
    [
      {
        Msts.Fault.at = 3;
        event = Msts.Fault.Drop_transfer { address = addr 1 2; penalty = 1 };
      };
    ]
  in
  let r = Msts.Netsim.replay_under_faults ~trace plan in
  Alcotest.(check int) "retried completion" 8 r.Msts.Netsim.observed_makespan;
  Alcotest.(check int) "one abort" 1 r.Msts.Netsim.aborted_ops;
  Alcotest.(check int) "one retry" 1 r.Msts.Netsim.transfer_retries;
  let e = (Schedule_reference.spider_rows r.Msts.Netsim.observed).(0) in
  Alcotest.(check (array int)) "second hop re-recorded" [| 0; 4 |]
    e.comms;
  (* a drop while nothing is in flight is a no-op *)
  let quiet =
    Msts.Netsim.replay_under_faults
      ~trace:
        [
          {
            Msts.Fault.at = 1;
            event = Msts.Fault.Drop_transfer { address = addr 1 2; penalty = 5 };
          };
        ]
      plan
  in
  Alcotest.(check int) "no-op drop" 6 quiet.Msts.Netsim.observed_makespan;
  Alcotest.(check int) "nothing aborted" 0 quiet.Msts.Netsim.aborted_ops

(* Two dropped emissions whose backoffs expire at the same instant go
   out again in the order they rejoined the master's queue. *)
let equal_backoffs_keep_queue_order () =
  let spider = Msts.Spider.of_chain (Msts.Chain.of_pairs [ (5, 1) ]) in
  let plan =
    Schedule_reference.spider_plan spider
      [|
        { Schedule_reference.Spider_schedule.address = addr 1 1; start = 5; comms = [| 0 |] };
        { Schedule_reference.Spider_schedule.address = addr 1 1; start = 10; comms = [| 5 |] };
      |]
  in
  let drop at penalty =
    {
      Msts.Fault.at;
      event = Msts.Fault.Drop_transfer { address = addr 1 1; penalty };
    }
  in
  (* task 1 is dropped at 1 and task 2, emitted next, at 2: both may
     retry from 11 *)
  let r = Msts.Netsim.replay_under_faults ~trace:[ drop 1 10; drop 2 9 ] plan in
  let comms i =
    (Schedule_reference.spider_rows r.Msts.Netsim.observed).(i).comms
  in
  Alcotest.(check (array int)) "task 1 re-emitted first" [| 11 |] (comms 0);
  Alcotest.(check (array int)) "task 2 after it" [| 16 |] (comms 1);
  Alcotest.(check int) "two retries" 2 r.Msts.Netsim.transfer_retries

let crash_returns_and_retargets () =
  let n = 8 in
  let plan = Msts.Spider_algorithm.schedule_tasks figure2_spider n in
  let crash_time = 6 in
  let trace =
    [ { Msts.Fault.at = crash_time; event = Msts.Fault.Crash_proc (addr 2 1) } ]
  in
  let r = Msts.Netsim.replay_under_faults ~trace plan in
  (* everything completes, and nothing completes on the dead leg after the
     crash: results computed before it survive, nothing else *)
  Array.iteri
    (fun idx c ->
      Alcotest.(check bool) "completed" true (c > 0);
      let e = (Schedule_reference.spider_rows r.Msts.Netsim.observed).(idx) in
      if e.address.Msts.Spider.leg = 2 then
        Alcotest.(check bool) "dead-leg completion predates the crash" true
          (c < crash_time))
    r.Msts.Netsim.completions;
  Alcotest.(check bool) "some tasks were re-issued" true
    (r.Msts.Netsim.returned_tasks > 0)

let killing_everything_raises () =
  let spider = Msts.Spider.of_chain (Msts.Chain.of_pairs [ (1, 3) ]) in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 2 in
  let trace =
    [ { Msts.Fault.at = 2; event = Msts.Fault.Crash_proc (addr 1 1) } ]
  in
  Alcotest.(check bool) "static replay raises" true
    (match Msts.Netsim.replay_under_faults ~trace plan with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "pull raises too" true
    (match Msts.Netsim.pull_under_faults ~trace spider ~tasks:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let redirect_validation () =
  let plan = Msts.Spider_algorithm.schedule_tasks figure2_spider 6 in
  let trace =
    [ { Msts.Fault.at = 1; event = Msts.Fault.Crash_proc (addr 2 3) } ]
  in
  let bad_decide lst _ = Msts.Fault.Redirect lst in
  Alcotest.(check bool) "wrong task set rejected" true
    (match
       Msts.Netsim.replay_under_faults ~trace
         ~decide:(bad_decide [ (999, addr 1 1) ])
         plan
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let dead_decide snap =
    match snap.Msts.Fault.at_master with
    | [] -> Msts.Fault.Keep
    | ids -> Msts.Fault.Redirect (List.map (fun (id, _) -> (id, addr 2 3)) ids)
  in
  Alcotest.(check bool) "dead destination rejected" true
    (match Msts.Netsim.replay_under_faults ~trace ~decide:dead_decide plan with
    | _ -> false
    | exception Invalid_argument _ -> true)

let snapshot_partitions_tasks () =
  let n = 6 in
  let plan = Msts.Spider_algorithm.schedule_tasks figure2_spider n in
  let seen = ref [] in
  let decide snap =
    seen := snap :: !seen;
    Msts.Fault.Keep
  in
  let trace =
    [
      {
        Msts.Fault.at = 4;
        event = Msts.Fault.Slow_link { address = addr 1 1; factor = 2 };
      };
      { Msts.Fault.at = 8; event = Msts.Fault.Crash_proc (addr 1 2) };
    ]
  in
  ignore (Msts.Netsim.replay_under_faults ~trace ~decide plan);
  Alcotest.(check int) "hook called once per event" 2 (List.length !seen);
  List.iter
    (fun snap ->
      let ids =
        List.concat
          [
            snap.Msts.Fault.completed;
            List.map fst snap.Msts.Fault.in_flight;
            List.map fst snap.Msts.Fault.at_master;
          ]
      in
      Alcotest.(check (list int)) "partition of 1..n"
        (List.init n (fun i -> i + 1))
        (List.sort compare ids))
    !seen;
  match List.rev !seen with
  | [ first; second ] ->
      Alcotest.(check int) "first snapshot time" 4 first.Msts.Fault.time;
      Alcotest.(check int) "events still to come" 1
        (List.length first.Msts.Fault.remaining);
      Alcotest.(check int) "last sees an empty future" 0
        (List.length second.Msts.Fault.remaining)
  | _ -> Alcotest.fail "expected two snapshots"

(* ---------- refinement and differential properties ---------- *)

let no_fault_refinement =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"empty trace: replay_under_faults = analytic ASAP of the plan's routing"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:7 ())
       (fun (spider, n) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let base =
           spider_asap spider
             (Array.map
                (fun (e : Schedule_reference.Spider_schedule.entry) -> e.address)
                (Schedule_reference.spider_rows plan))
         in
         let f = Msts.Netsim.replay_under_faults plan in
         if f.Msts.Netsim.observed_makespan <> Msts.Spider_schedule.makespan base then
           QCheck.Test.fail_reportf "makespan %d <> %d"
             f.Msts.Netsim.observed_makespan (Msts.Spider_schedule.makespan base);
         Schedule_reference.spider_rows f.Msts.Netsim.observed
         = Schedule_reference.spider_rows base))

let pull_no_fault_refinement =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"empty trace: pull_under_faults = reference pull policy ~buffer:1"
       (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:7 ())
       (fun (spider, n) ->
         let base = Netsim_reference.pull_policy ~buffer:1 spider ~tasks:n in
         let f = Msts.Netsim.pull_under_faults spider ~tasks:n in
         Schedule_reference.spider_rows f.Msts.Netsim.observed
         = Schedule_reference.spider_rows base))

let slow_at_zero_is_degrade =
  to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"slowdowns at t=0 = replay_routing on the degraded platform"
       QCheck.(
         pair (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ()) (pair small_nat small_nat))
       (fun ((spider, n), (pick, seed)) ->
         let addresses = Array.of_list (Msts.Spider.addresses spider) in
         let victim = addresses.(pick mod Array.length addresses) in
         let work_factor = 2 + (seed mod 3) in
         let latency_factor = 1 + (seed mod 2) in
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let trace =
           [
             {
               Msts.Fault.at = 0;
               event = Msts.Fault.Slow_link { address = victim; factor = latency_factor };
             };
             {
               Msts.Fault.at = 0;
               event = Msts.Fault.Slow_proc { address = victim; factor = work_factor };
             };
           ]
         in
         let hurt = Msts.Netsim.degrade ~latency_factor spider ~address:victim ~work_factor in
         let a = Msts.Netsim.replay_under_faults ~trace plan in
         let b = Msts.Netsim.replay_routing ~on:hurt plan in
         a.Msts.Netsim.observed_makespan = b.Msts.Netsim.realized_makespan))

let replan_never_worse =
  to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"replan-on-fault never exceeds blind static replay"
       QCheck.(
         pair (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:6 ()) small_nat)
       (fun ((spider, n), seed) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let horizon = max 1 (Msts.Spider_schedule.makespan plan) in
         let rng = Msts.Prng.create seed in
         let trace = Msts.Fault.random rng spider ~events:4 ~horizon in
         let blind = Msts.Netsim.replay_under_faults ~trace plan in
         let smart = Msts.Replan.replay ~trace plan in
         let sm = smart.Msts.Replan.report.Msts.Netsim.observed_makespan in
         if sm > blind.Msts.Netsim.observed_makespan then
           QCheck.Test.fail_reportf "replan %d > static %d on trace\n%s" sm
             blind.Msts.Netsim.observed_makespan
             (Msts.Fault.to_string trace);
         (* no task is ever lost, in either executor *)
         Array.for_all (fun c -> c > 0) blind.Msts.Netsim.completions
         && Array.for_all (fun c -> c > 0)
              smart.Msts.Replan.report.Msts.Netsim.completions))

(* The memoised keep cost changes no decision: against the frozen
   two-lookahead replay, same report, replans, considered and intent. *)
let replan_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"Replan.replay = the two-lookahead reference"
       QCheck.(
         triple
           (spider_arb ~max_legs:4 ~max_depth:3 ())
           (int_range 10 69) (pair (int_range 1 8) small_nat))
       (fun (spider, n, (events, seed)) ->
         let spider =
           if Msts.Spider.legs spider >= 2 then spider
           else Msts.Spider.of_legs [ Msts.Spider.leg_chain spider 1; figure2_chain ]
         in
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let horizon = max 1 (Msts.Spider_schedule.makespan plan) in
         let trace =
           Msts.Fault.random (Msts.Prng.create seed) spider ~events ~horizon
         in
         let run replay = try Ok (replay ()) with e -> Error e in
         match
           ( run (fun () -> Msts.Replan.replay ~trace plan),
             run (fun () -> Replan_reference.replay ~trace plan) )
         with
         | Ok a, Ok b ->
             let report (o : Msts.Replan.outcome) =
               let r = o.report in
               ( Schedule_reference.spider_rows r.Msts.Netsim.observed,
                 r.Msts.Netsim.observed_makespan,
                 r.Msts.Netsim.completions,
                 r.Msts.Netsim.aborted_ops,
                 r.Msts.Netsim.returned_tasks,
                 r.Msts.Netsim.transfer_retries )
             in
             let intent (o : Msts.Replan.outcome) =
               Option.map Schedule_reference.spider_rows o.final_intent
             in
             report a = report b
             && a.replans = b.replans
             && a.considered = b.considered
             && intent a = intent b
         | Error a, Error b -> Printexc.to_string a = Printexc.to_string b
         | _ -> false))

let pull_survives_random_traces =
  to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"pull master completes every task under feasible traces"
       QCheck.(
         pair (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:6 ()) small_nat)
       (fun ((spider, n), seed) ->
         let rng = Msts.Prng.create seed in
         let trace = Msts.Fault.random rng spider ~events:4 ~horizon:30 in
         let r = Msts.Netsim.pull_under_faults ~trace spider ~tasks:n in
         Array.length r.Msts.Netsim.completions = n
         && Array.for_all (fun c -> c > 0) r.Msts.Netsim.completions))

let final_intent_covers_all_tasks () =
  let n = 8 in
  let plan = Msts.Spider_algorithm.schedule_tasks figure2_spider n in
  let trace =
    [ { Msts.Fault.at = 5; event = Msts.Fault.Crash_proc (addr 2 2) } ]
  in
  let r = Msts.Replan.replay ~trace plan in
  match r.Msts.Replan.final_intent with
  | None -> Alcotest.(check int) "no replan adopted" 0 r.Msts.Replan.replans
  | Some intent ->
      Alcotest.(check int) "splice keeps the task count" n
        (Msts.Spider_schedule.task_count intent);
      Array.iter
        (fun (e : Schedule_reference.Spider_schedule.entry) ->
          Alcotest.(check bool) "splice avoids the dead suffix" true
            (not
               (e.address.Msts.Spider.leg = 2 && e.address.Msts.Spider.depth >= 2)
            || e.start + Msts.Spider.work figure2_spider e.address <= 5))
        (Schedule_reference.spider_rows intent)

let suites =
  [
    ( "faults.trace",
      [
        case "parse round trip" parse_round_trip;
        case "parse rejects garbage" parse_rejects_garbage;
        case "validate catches problems" validate_catches_problems;
        random_traces_validate;
      ] );
    ( "faults.state",
      [
        case "bookkeeping" state_bookkeeping;
        case "residual platform" residual_platform;
      ] );
    ( "faults.executor",
      [
        case "slowdown stretches in-flight work" slowdown_stretches_in_flight;
        case "drop retries after backoff" drop_retries_after_backoff;
        case "equal backoffs keep queue order" equal_backoffs_keep_queue_order;
        case "crash returns and retargets" crash_returns_and_retargets;
        case "killing everything raises" killing_everything_raises;
        case "redirect validation" redirect_validation;
        case "snapshots partition the tasks" snapshot_partitions_tasks;
      ] );
    ( "faults.properties",
      [
        no_fault_refinement;
        pull_no_fault_refinement;
        slow_at_zero_is_degrade;
        replan_never_worse;
        replan_matches_reference;
        pull_survives_random_traces;
        case "final intent covers all tasks" final_intent_covers_all_tasks;
      ] );
  ]
