(* Tests for Msts.Trace: the segment algebra (split/concat/project), the
   compositional invariant checker, a differential validation of the trace
   checker against Feasibility on hundreds of random plans, and the fuzz
   harness that drives random fault/replan interleavings through the
   simulator while checking every invariant on the recorded trace.  See
   docs/VERIFICATION.md for the catalogue being exercised here. *)

open Helpers
module Trace = Msts.Trace

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let spider_fixture () =
  Msts.Spider.make
    [|
      Msts.Chain.of_pairs [ (2, 3); (3, 5) ];
      Msts.Chain.of_pairs [ (1, 4) ];
      Msts.Chain.of_pairs [ (3, 2); (2, 2) ];
    |]

(* Record the trace of one simulator run. *)
let record f =
  let r = Trace.Recorder.create () in
  let result = Trace.with_recorder r f in
  (result, Trace.recorded r)

let fail_violations tr = function
  | [] -> ()
  | viols -> Alcotest.failf "unexpected violations:\n%s" (Trace.report tr viols)

(* ---------- algebra ---------- *)

let ev ~time ~seq ~task kind = { Trace.time; seq; task; kind }

(* First and last event times; [None] on the empty segment. *)
(* One event per line. *)
let show tr = String.concat "\n" (List.map Trace.event_to_string (Trace.events tr))

let time_span tr =
  match Trace.events tr with
  | [] -> None
  | first :: _ as evs ->
      let last = List.nth evs (List.length evs - 1) in
      Some (first.Trace.time, last.Trace.time)
let port_op = Trace.Transfer { leg = 1; hop = 1 }
let cpu_op = Trace.Compute { leg = 1; depth = 1 }

let canonical_order () =
  (* out of emission order on purpose: a segment is sorted by time, then
     finishes-before-starts, then seq *)
  let tr =
    segment
      [
        ev ~time:5 ~seq:0 ~task:2 (Trace.Start port_op);
        ev ~time:5 ~seq:1 ~task:1 (Trace.Finish cpu_op);
        ev ~time:3 ~seq:2 ~task:1 (Trace.Start cpu_op);
      ]
  in
  match Trace.events tr with
  | [ a; b; c ] ->
      Alcotest.(check int) "earliest event first" 3 a.Trace.time;
      Alcotest.(check bool) "finish precedes start at the same instant" true
        (match b.Trace.kind with Trace.Finish _ -> true | _ -> false);
      Alcotest.(check int) "start at the shared instant comes last" 5 c.Trace.time;
      Alcotest.(check (option (pair int int))) "time span" (Some (3, 5))
        (time_span tr)
  | _ -> Alcotest.fail "three events in, not three events out"

let split_concat_roundtrip () =
  let plan = Msts.Chain_algorithm.schedule figure2_chain 5 in
  let _, tr =
    record (fun () -> Msts.Netsim.execute (Msts.Plan.Chain plan))
  in
  Alcotest.(check bool) "execution recorded events" true (Trace.length tr > 0);
  let lo, hi =
    match time_span tr with
    | Some s -> s
    | None -> Alcotest.fail "recorded trace is empty"
  in
  List.iter
    (fun at ->
      let a, b = Trace.split tr ~at in
      Alcotest.(check int)
        (Printf.sprintf "split at %d loses nothing" at)
        (Trace.length tr)
        (Trace.length a + Trace.length b);
      let glued = Trace.concat a b in
      Alcotest.(check string)
        (Printf.sprintf "concat undoes split at %d" at)
        (show tr) (show glued))
    [ lo; (lo + hi) / 2; hi; hi + 1 ]

let concat_rejects_overlap () =
  let a =
    segment
      [
        ev ~time:0 ~seq:0 ~task:1 (Trace.Start port_op);
        ev ~time:10 ~seq:1 ~task:1 (Trace.Finish port_op);
      ]
  in
  let b = segment [ ev ~time:5 ~seq:2 ~task:2 (Trace.Start port_op) ] in
  (match Trace.concat a b with
  | _ -> Alcotest.fail "overlapping concat accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the function" true
        (String.starts_with ~prefix:"Msts.Trace.concat" msg));
  (* sharing the boundary instant is fine: busy intervals are half-open *)
  let c = segment [ ev ~time:10 ~seq:3 ~task:2 (Trace.Start port_op) ] in
  Alcotest.(check int) "boundary-sharing concat" 3 (Trace.length (Trace.concat a c))

let project_partitions () =
  let spider = spider_fixture () in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 6 in
  let tr = Trace.of_plan (Msts.Plan.Spider plan) in
  let total = Trace.length tr in
  Alcotest.(check bool) "planned trace nonempty" true (total > 0);
  let port = Trace.project tr (Trace.On_resource Trace.Port) in
  Alcotest.(check bool) "port projection nonempty" true (Trace.length port > 0);
  List.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Start (Trace.Transfer { hop = 1; _ })
      | Trace.Finish (Trace.Transfer { hop = 1; _ }) -> ()
      | _ ->
          Alcotest.failf "non-port event in the port projection: %s"
            (Trace.event_to_string e))
    (Trace.events port);
  let sum_lengths selectors =
    List.fold_left (fun acc s -> acc + Trace.length (Trace.project tr s)) 0 selectors
  in
  let legs = List.init (Msts.Spider.legs spider) (fun i -> Trace.On_leg (i + 1)) in
  Alcotest.(check int) "leg projections partition the trace" total
    (sum_lengths legs);
  let tasks =
    List.sort_uniq compare (List.map (fun e -> e.Trace.task) (Trace.events tr))
  in
  Alcotest.(check int) "task projections partition the trace" total
    (sum_lengths (List.map (fun t -> Trace.On_task t) tasks))

(* Two tasks on distinct one-node legs, both emitted through the master's
   port at time 0: the minimal one-port violation. *)
let overlapping_port_plan () =
  let spider =
    Msts.Spider.make
      [| Msts.Chain.of_pairs [ (2, 3) ]; Msts.Chain.of_pairs [ (3, 4) ] |]
  in
  let entry leg start c0 =
    { Schedule_reference.Spider_schedule.address = { Msts.Spider.leg; depth = 1 };
      start;
      comms = [| c0 |];
    }
  in
  Schedule_reference.spider_plan spider [| entry 1 2 0; entry 2 3 0 |]

(* Checking a whole trace and checking its slices with one threaded state
   must agree — even slice by slice, and even on a dirty trace. *)
let segment_composition () =
  let tr = Trace.of_plan (Msts.Plan.Spider (overlapping_port_plan ())) in
  let whole = Trace.check tr in
  Alcotest.(check bool) "fixture is dirty" true (whole <> []);
  let lo, hi = Option.get (time_span tr) in
  let st = Trace.Check.strict () in
  let threaded = ref [] in
  let rest = ref tr in
  for at = lo + 1 to hi do
    let a, b = Trace.split !rest ~at in
    threaded := !threaded @ Trace.Check.segment st a;
    rest := b
  done;
  threaded := !threaded @ Trace.Check.segment st !rest;
  Alcotest.(check bool) "slice-threaded check equals whole-trace check" true
    (!threaded = whole)

(* Cutting a clean trace anywhere yields segments that are clean in
   isolation: Check.unknown infers the mid-operation state at first contact
   instead of inventing violations. *)
let clean_cuts_stay_clean () =
  let spider = spider_fixture () in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 6 in
  let _, tr =
    record (fun () -> Msts.Netsim.execute (Msts.Plan.Spider plan))
  in
  fail_violations tr (Trace.check ~require_nonnegative:true tr);
  let lo, hi = Option.get (time_span tr) in
  List.iter
    (fun at ->
      let a, b = Trace.split tr ~at in
      fail_violations a (Trace.check_segment a);
      fail_violations b (Trace.check_segment b))
    [ lo; (lo + hi) / 2; (lo + (3 * hi)) / 4; hi ]

(* ---------- invariants ---------- *)

let planned_figure2_clean () =
  let tr = Trace.of_plan (Msts.Plan.Chain (Msts.Chain_algorithm.schedule figure2_chain 7)) in
  fail_violations tr (Trace.check ~require_nonnegative:true tr)

let recorded_execution_clean () =
  let spider = spider_fixture () in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 6 in
  let r = Trace.Recorder.create () in
  let report =
    Trace.with_recorder r (fun () -> Msts.Netsim.execute (Msts.Plan.Spider plan))
  in
  let tr = Trace.recorded r in
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  Alcotest.(check bool) "no recorder, no events" false (Trace.recording ());
  fail_violations tr (Trace.check ~require_nonnegative:true tr);
  Alcotest.(check int) "execution still exact under recording"
    (Msts.Spider_schedule.makespan plan)
    report.Msts.Netsim.realized_makespan

(* A run inside [without_recorder] leaves no event in the installed
   recorder, which is back in place afterwards, also after an exception. *)
let without_recorder_hides_a_nested_run () =
  let spider = spider_fixture () in
  let plan = Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider 6) in
  let (), tr =
    record (fun () ->
        Trace.without_recorder (fun () ->
            Alcotest.(check bool) "no recorder inside" false (Trace.recording ());
            ignore (Msts.Netsim.execute plan : Msts.Netsim.execution_report));
        Alcotest.(check bool) "recorder restored" true (Trace.recording ());
        (try Trace.without_recorder (fun () -> failwith "lookahead failed")
         with Failure _ -> ());
        Alcotest.(check bool) "restored after an exception" true (Trace.recording ()))
  in
  Alcotest.(check int) "nothing recorded" 0 (Trace.length tr);
  let (), tr = record (fun () -> ignore (Msts.Netsim.execute plan)) in
  Alcotest.(check bool) "the same run outside records" true (Trace.length tr > 0)

(* The acceptance criterion: a deliberately corrupted plan whose two tasks
   emit through the master's port at the same instant is rejected with a
   one-port violation, and localize cuts the trace down to exactly the two
   offending emissions. *)
let corrupted_port_overlap_localized () =
  let tr = Trace.of_plan (Msts.Plan.Spider (overlapping_port_plan ())) in
  match Trace.check ~require_nonnegative:true tr with
  | [ v ] ->
      Alcotest.(check string) "the one-port invariant fired" "one-port"
        v.Trace.invariant;
      (match v.Trace.witness with
      | [ a; b ] ->
          Alcotest.(check bool) "witness events are distinct tasks" true
            (a.Trace.task <> b.Trace.task);
          List.iter
            (fun e ->
              match e.Trace.kind with
              | Trace.Start (Trace.Transfer { hop = 1; _ }) -> ()
              | _ ->
                  Alcotest.failf "witness is not a port emission: %s"
                    (Trace.event_to_string e))
            [ a; b ]
      | w ->
          Alcotest.failf "expected the two offending events, got %d" (List.length w));
      let seg = Trace.localize tr v in
      Alcotest.(check int) "minimal segment: exactly the two emissions" 2
        (Trace.length seg);
      (match Trace.check_segment seg with
      | [ v' ] ->
          Alcotest.(check string) "re-checking the segment reproduces it"
            "one-port" v'.Trace.invariant
      | other ->
          Alcotest.failf "localized segment re-check found %d violations"
            (List.length other));
      let rendered = Trace.report tr [ v ] in
      Alcotest.(check bool) "report names the invariant" true
        (contains ~sub:"one-port" rendered);
      Alcotest.(check bool) "report prints the segment" true
        (contains ~sub:"  | " rendered)
  | viols ->
      Alcotest.failf "expected exactly the one-port violation:\n%s"
        (Trace.report tr viols)

let negative_dates_flagged () =
  let tr =
    segment
      [
        ev ~time:(-1) ~seq:0 ~task:1 (Trace.Start port_op);
        ev ~time:1 ~seq:1 ~task:1 (Trace.Finish port_op);
      ]
  in
  fail_violations tr (Trace.check tr);
  match Trace.check ~require_nonnegative:true tr with
  | [ v ] -> Alcotest.(check string) "flagged" "negative-date" v.Trace.invariant
  | viols -> Alcotest.failf "expected one negative-date, got %d" (List.length viols)

(* A crash that cuts off a whole leg mid-run: the recorded trace carries
   Abort and Return events, agrees event-for-event with the report's
   counters, and still satisfies every invariant. *)
let fault_run_trace_clean () =
  let spider = spider_fixture () in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 6 in
  let trace =
    match Msts.Fault.parse "3 crash 1 1" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let report, tr =
    record (fun () -> Msts.Netsim.replay_under_faults ~trace plan)
  in
  fail_violations tr (Trace.check ~require_nonnegative:true tr);
  let count p = List.length (List.filter p (Trace.events tr)) in
  let aborts =
    count (fun e -> match e.Trace.kind with Trace.Abort _ -> true | _ -> false)
  in
  let returns = count (fun e -> e.Trace.kind = Trace.Return) in
  Alcotest.(check int) "abort events match the report" report.Msts.Netsim.aborted_ops
    aborts;
  Alcotest.(check int) "return events match the report"
    report.Msts.Netsim.returned_tasks returns;
  Alcotest.(check bool) "the crash was actually disruptive" true
    (aborts + returns > 0)

let event_budget_guard () =
  let spider = spider_fixture () in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 5 in
  (match Msts.Netsim.replay_under_faults ~max_events:1 plan with
  | _ -> Alcotest.fail "a one-event budget completed a five-task plan"
  | exception Failure msg ->
      Alcotest.(check bool) "failure names the budget" true
        (contains ~sub:"event budget" msg));
  (match Msts.Netsim.replay_under_faults ~max_events:0 plan with
  | _ -> Alcotest.fail "max_events 0 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "invalid budget names Engine.run" true
        (String.starts_with ~prefix:"Msts.Engine.run" msg));
  let free = Msts.Netsim.replay_under_faults plan in
  let bounded = Msts.Netsim.replay_under_faults ~max_events:100_000 plan in
  Alcotest.(check int) "a generous budget changes nothing"
    free.Msts.Netsim.observed_makespan bounded.Msts.Netsim.observed_makespan

(* ---------- differential: trace checker vs Feasibility ---------- *)

(* Both checkers must agree on every plan; dirty traces must localize. *)
let agree_on plan =
  let oracle_clean = Msts.Plan.check ~require_nonnegative:true plan = [] in
  let tr = Trace.of_plan plan in
  let viols = Trace.check ~require_nonnegative:true tr in
  if oracle_clean <> (viols = []) then
    QCheck.Test.fail_reportf
      "trace checker disagrees with Feasibility (oracle %s, trace %s)\n%s"
      (if oracle_clean then "clean" else "dirty")
      (if viols = [] then "clean" else "dirty")
      (Trace.report tr viols);
  List.iter
    (fun v ->
      if v.Trace.invariant <> "negative-date" && Trace.length (Trace.localize tr v) = 0
      then
        QCheck.Test.fail_reportf "violation did not localize: %s" (explain v))
    viols;
  (oracle_clean, viols)

let differential_feasible_chains =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"trace verdict matches Feasibility on solver chain plans"
       (chain_with_n_arb ~max_p:4 ~max_n:8 ())
       (fun (chain, n) ->
         let plan = Msts.Plan.Chain (Msts.Chain_algorithm.schedule chain n) in
         let clean, _ = agree_on plan in
         clean || QCheck.Test.fail_reportf "solver chain plan rejected"))

let differential_feasible_spiders =
  to_alcotest
    (QCheck.Test.make ~count:110
       ~name:"trace verdict matches Feasibility on solver spider plans"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         let plan =
           Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n)
         in
         let clean, _ = agree_on plan in
         clean || QCheck.Test.fail_reportf "solver spider plan rejected"))

(* Corrupt a solver chain plan: either let the second task's first emission
   collide with the first task's (a port/link-1 overlap), or start the
   second task before its data arrives. *)
let corrupt_chain sched ~collide =
  let entries =
    Array.map
      (fun (e : Schedule_reference.Schedule.entry) -> { e with comms = Array.copy e.comms })
      (Schedule_reference.chain_rows sched)
  in
  let a = entries.(0) and b = entries.(1) in
  if collide then b.comms.(0) <- a.comms.(0)
  else
    entries.(1) <-
      { b with Schedule_reference.Schedule.start = b.comms.(b.proc - 1) };
  Schedule_reference.chain_plan (Msts.Schedule.chain sched) entries

let differential_corrupted_chains =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"corrupted chain plans are rejected by both checkers"
       (QCheck.pair (chain_with_n_arb ~max_p:4 ~max_n:8 ()) QCheck.bool)
       (fun ((chain, n), collide) ->
         let n = max 2 n in
         let sched = corrupt_chain (Msts.Chain_algorithm.schedule chain n) ~collide in
         let clean, _ = agree_on (Msts.Plan.Chain sched) in
         (not clean) || QCheck.Test.fail_reportf "corruption went undetected"))

let differential_corrupted_spiders =
  to_alcotest
    (QCheck.Test.make ~count:110
       ~name:"corrupted spider plans are rejected with a one-port violation"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         let n = max 2 n in
         let sched = Msts.Spider_algorithm.schedule_tasks spider n in
         let entries =
           Array.map
             (fun (e : Schedule_reference.Spider_schedule.entry) ->
               { e with comms = Array.copy e.comms })
             (Schedule_reference.spider_rows sched)
         in
         entries.(1).comms.(0) <- entries.(0).comms.(0);
         let sched = Schedule_reference.spider_plan spider entries in
         let clean, viols = agree_on (Msts.Plan.Spider sched) in
         if clean then QCheck.Test.fail_reportf "port collision went undetected";
         List.exists (fun v -> v.Trace.invariant = "one-port") viols
         || QCheck.Test.fail_reportf
              "port collision flagged, but not as one-port:\n%s"
              (String.concat "\n" (List.map explain viols))))

(* ---------- fuzz: random fault/replan interleavings ---------- *)

let scenario_arb =
  QCheck.pair
    (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:6 ())
    (QCheck.pair QCheck.small_nat (QCheck.int_bound 5))

(* Check every invariant on the recorded trace of one fault run and tie the
   report's counters to the recorded Abort/Return events. *)
let audit_fault_run tr (report : Msts.Netsim.fault_report) =
  (match Trace.check ~require_nonnegative:true tr with
  | [] -> ()
  | viols ->
      QCheck.Test.fail_reportf "invariant violated under faults:\n%s"
        (Trace.report tr viols));
  let count p = List.length (List.filter p (Trace.events tr)) in
  let aborts =
    count (fun e -> match e.Trace.kind with Trace.Abort _ -> true | _ -> false)
  in
  let returns = count (fun e -> e.Trace.kind = Trace.Return) in
  aborts = report.Msts.Netsim.aborted_ops
  && returns = report.Msts.Netsim.returned_tasks
  || QCheck.Test.fail_reportf
       "trace/report drift: %d abort events vs %d aborted_ops, %d returns vs %d returned_tasks"
       aborts report.Msts.Netsim.aborted_ops returns
       report.Msts.Netsim.returned_tasks

let fuzz_replay =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"replay_under_faults holds every invariant on random fault schedules"
       scenario_arb
       (fun ((spider, n), (seed, events)) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let rng = Msts.Prng.create (0x7ace + (31 * seed)) in
         let horizon = Msts.Spider_schedule.makespan plan + 10 in
         let trace = Msts.Fault.random rng spider ~events ~horizon in
         (* random arrival order: replay the same decisions from a permuted
            task numbering *)
         let entries = Array.copy (Schedule_reference.spider_rows plan) in
         Msts.Prng.shuffle rng entries;
         let plan = Schedule_reference.spider_plan spider entries in
         let report, tr =
           record (fun () ->
               Msts.Netsim.replay_under_faults ~max_events:200_000 ~trace plan)
         in
         (n = 0 || Trace.length tr > 0) && audit_fault_run tr report))

let fuzz_pull =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"pull_under_faults holds every invariant on random fault schedules"
       scenario_arb
       (fun ((spider, n), (seed, events)) ->
         let rng = Msts.Prng.create (0xbee5 + (17 * seed)) in
         let trace = Msts.Fault.random rng spider ~events ~horizon:40 in
         let report, tr =
           record (fun () ->
               Msts.Netsim.pull_under_faults ~max_events:200_000 ~trace spider
                 ~tasks:n)
         in
         audit_fault_run tr report))

(* The replanner's realised run, recorded with its lookahead simulations
   running inside it, holds every invariant and agrees with its report;
   and it must beat or match the blind replay of the same scenario — the
   guarantee Replan documents. *)
let fuzz_replan =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"Replan.replay never loses to the blind replay, its recorded run holds every invariant"
       scenario_arb
       (fun ((spider, n), (seed, events)) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let rng = Msts.Prng.create (0xf1a7 + (13 * seed)) in
         let horizon = Msts.Spider_schedule.makespan plan + 10 in
         let trace = Msts.Fault.random rng spider ~events ~horizon in
         let blind = Msts.Netsim.replay_under_faults ~max_events:200_000 ~trace plan in
         let outcome, tr = record (fun () -> Msts.Replan.replay ~trace plan) in
         audit_fault_run tr outcome.Msts.Replan.report
         && (outcome.Msts.Replan.replans <= outcome.Msts.Replan.considered
         || QCheck.Test.fail_reportf "%d replans out of %d considered"
              outcome.Msts.Replan.replans outcome.Msts.Replan.considered)
         && (outcome.Msts.Replan.report.Msts.Netsim.observed_makespan
             <= blind.Msts.Netsim.observed_makespan
            || QCheck.Test.fail_reportf "replanner lost: %d > %d"
                 outcome.Msts.Replan.report.Msts.Netsim.observed_makespan
                 blind.Msts.Netsim.observed_makespan)))

(* When the replanner keeps course at every fault, its recorded run is
   the blind replay, event for event: its lookaheads leave nothing in the
   trace. *)
let fuzz_replan_keeping_course =
  to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"a replay that adopts no redirect records exactly the blind replay"
       scenario_arb
       (fun ((spider, n), (seed, events)) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let rng = Msts.Prng.create (0xc0a5 + (7 * seed)) in
         let horizon = Msts.Spider_schedule.makespan plan + 10 in
         let trace = Msts.Fault.random rng spider ~events ~horizon in
         let _, blind = record (fun () -> Msts.Netsim.replay_under_faults ~trace plan) in
         let outcome, replanned = record (fun () -> Msts.Replan.replay ~trace plan) in
         outcome.Msts.Replan.replans > 0
         || Trace.events replanned = Trace.events blind
         || QCheck.Test.fail_reportf "%d recorded events against %d for the blind replay"
              (Trace.length replanned) (Trace.length blind)))

let suites =
  [
    ( "trace.algebra",
      [
        case "canonical event order" canonical_order;
        case "split/concat roundtrip" split_concat_roundtrip;
        case "concat rejects overlapping segments" concat_rejects_overlap;
        case "projections partition the trace" project_partitions;
        case "checking slices with a threaded state equals the whole"
          segment_composition;
        case "cuts of a clean trace are clean in isolation" clean_cuts_stay_clean;
      ] );
    ( "trace.invariants",
      [
        case "planned figure-2 trace is clean" planned_figure2_clean;
        case "recorded execution is clean and fully counted"
          recorded_execution_clean;
        case "overlapping port emissions localize to a minimal segment"
          corrupted_port_overlap_localized;
        case "negative dates flagged only on request" negative_dates_flagged;
        case "crash run records aborts/returns and stays clean"
          fault_run_trace_clean;
        case "event budget turns livelock into failure" event_budget_guard;
        case "a run without the recorder leaves no event in it"
          without_recorder_hides_a_nested_run;
      ] );
    ( "trace.differential",
      [
        differential_feasible_chains;
        differential_feasible_spiders;
        differential_corrupted_chains;
        differential_corrupted_spiders;
      ] );
    ("trace.fuzz", [ fuzz_replay; fuzz_pull; fuzz_replan; fuzz_replan_keeping_course ]);
  ]
