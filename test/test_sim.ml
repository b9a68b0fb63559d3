(* Tests for the discrete-event substrate: the engine and the
   master-slave network simulation. *)

open Helpers

(* ---------- engine ---------- *)

(* Run the engine with [handle]; the events it executed, as its
   [engine.events] tally reports them. *)
let run_counted e handle =
  let mem = Msts.Obs.Memory.create () in
  Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () -> Msts.Engine.run e handle);
  Msts.Obs.Memory.counter mem "engine.events"

let engine_orders_events () =
  let e = Msts.Engine.create () in
  let log = ref [] in
  List.iter (fun t -> Msts.Engine.schedule_at e t t) [ 5; 1; 3 ];
  let events = run_counted e (fun code -> log := code :: !log) in
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 5 (Msts.Engine.now e);
  Alcotest.(check int) "three events" 3 events

let engine_fifo_within_time () =
  let e = Msts.Engine.create () in
  let log = ref [] in
  List.iter (fun code -> Msts.Engine.schedule_at e 7 code) [ 10; 11; 12 ];
  Msts.Engine.run e (fun code -> log := code :: !log);
  Alcotest.(check (list int)) "insertion order preserved" [ 10; 11; 12 ]
    (List.rev !log)

let engine_cascading () =
  let e = Msts.Engine.create () in
  let log = ref [] in
  Msts.Engine.schedule_at e 2 0;
  Msts.Engine.run e (function
    | 0 ->
        log := "first" :: !log;
        Msts.Engine.schedule_at e (Msts.Engine.now e + 3) 1
    | _ -> log := "second" :: !log);
  Alcotest.(check (list string)) "cascade" [ "first"; "second" ] (List.rev !log);
  Alcotest.(check int) "final clock" 5 (Msts.Engine.now e)

let engine_rejects_past () =
  let e = Msts.Engine.create () in
  Msts.Engine.schedule_at e 10 0;
  Msts.Engine.run e (fun _ ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule_at: time 3 is before now (10)")
        (fun () -> Msts.Engine.schedule_at e 3 0));
  Alcotest.check_raises "negative code"
    (Invalid_argument "Engine.schedule_at: negative code")
    (fun () -> Msts.Engine.schedule_at e 11 (-1))

let engine_stress =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"engine executes thousands of events in time order"
       QCheck.(small_int)
       (fun seed ->
         let rng = Msts.Prng.create seed in
         let e = Msts.Engine.create () in
         let fired = ref [] in
         let at = Array.init 2000 (fun _ -> Msts.Prng.int rng 10000) in
         Array.iteri (fun code t -> Msts.Engine.schedule_at e t code) at;
         let events =
           run_counted e (fun code ->
               fired := (Msts.Engine.now e, code) :: !fired)
         in
         let order = List.rev !fired in
         (* time order, insertion order among equal times, each date kept *)
         List.length order = 2000
         && events = 2000
         && List.for_all (fun (t, code) -> at.(code) = t) order
         && List.for_all2 ( <= ) order (List.tl order @ [ (max_int, max_int) ])))

let engine_drains_once () =
  let e = Msts.Engine.create () in
  Alcotest.(check int) "empty queue" 0 (run_counted e ignore);
  Msts.Engine.schedule_at e 1 0;
  Alcotest.(check int) "one event" 1 (run_counted e ignore);
  Alcotest.(check int) "drained" 0 (run_counted e ignore)

let engine_counts_cascades () =
  let e = Msts.Engine.create () in
  (* a chain of events, each scheduling the next: the counter must see
     events created mid-run, not just the initial batch *)
  let ripple n = if n > 0 then Msts.Engine.schedule_at e (Msts.Engine.now e + 1) (n - 1) in
  ripple 5;
  Alcotest.(check int) "all five counted" 5 (run_counted e ripple);
  Alcotest.(check int) "clock followed" 5 (Msts.Engine.now e);
  (* same-time events count individually *)
  Msts.Engine.schedule_at e 5 0;
  Msts.Engine.schedule_at e 5 0;
  Alcotest.(check int) "two more" 2 (run_counted e ignore)

(* ---------- netsim vs analytic ASAP ---------- *)

let netsim_equals_asap_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:250
       ~name:"event-driven execution equals analytic ASAP (chains)"
       (QCheck.make
          ~print:(fun (chain, seq) ->
            Printf.sprintf "%s, seq=[%s]" (Msts.Chain.to_string chain)
              (String.concat ";" (List.map string_of_int (Array.to_list seq))))
          QCheck.Gen.(
            chain_gen ~max_p:5 () >>= fun chain ->
            map
              (fun dests -> (chain, Array.of_list dests))
              (list_size (int_range 0 15)
                 (int_range 1 (Msts.Chain.length chain)))))
       (fun (chain, seq) ->
         Msts.Schedule.equal
           (Eager.chain_schedule chain seq)
           (chain_asap chain seq)))

let netsim_equals_asap_spider =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"event-driven execution equals analytic ASAP (spiders)"
       (QCheck.make
          ~print:(fun (spider, _) -> Msts.Spider.to_string spider)
          QCheck.Gen.(
            spider_gen ~max_legs:3 ~max_depth:3 () >>= fun spider ->
            let addresses = Array.of_list (Msts.Spider.addresses spider) in
            map
              (fun picks ->
                (spider, Array.of_list (List.map (Array.get addresses) picks)))
              (list_size (int_range 0 12)
                 (int_range 0 (Array.length addresses - 1)))))
       (fun (spider, seq) ->
         let a = Eager.spider_schedule spider seq in
         let b = spider_asap spider seq in
         Msts.Serial.spider_schedule_to_string a
         = Msts.Serial.spider_schedule_to_string b))

(* ---------- plan execution ---------- *)

let execute_plan_dominates =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"executing an optimal plan never finishes anything late"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         let plan = Msts.Chain_algorithm.schedule chain n in
         let report = Msts.Netsim.execute (Msts.Plan.Chain plan) in
         report.Msts.Netsim.realized_makespan <= report.Msts.Netsim.planned_makespan
         && Array.for_all (fun s -> s >= 0) report.Msts.Netsim.per_task_slack))

let execute_spider_plan_dominates =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"executing an optimal spider plan never finishes anything late"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:8 ())
       (fun (spider, n) ->
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let report = Msts.Netsim.execute (Msts.Plan.Spider plan) in
         report.Msts.Netsim.realized_makespan <= report.Msts.Netsim.planned_makespan))

let execute_plan_realized_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"realised execution is itself feasible"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         let plan = Msts.Chain_algorithm.schedule chain n in
         let report = Msts.Netsim.execute (Msts.Plan.Chain plan) in
         check_spider_feasible report.Msts.Netsim.realized))

let execute_plan_rejects_infeasible () =
  let bogus =
    Msts.Spider_schedule.of_chain_schedule
      (Schedule_reference.chain_plan figure2_chain
         [| { Schedule_reference.Schedule.proc = 1; start = 1; comms = [| 0 |] } |])
  in
  Alcotest.(check bool) "raises" true
    (match Msts.Netsim.execute (Msts.Plan.Spider bogus) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- pull policy ---------- *)

let pull_feasible_and_complete =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"pull policy is feasible and serves all tasks"
       (QCheck.make
          ~print:(fun ((spider, n), b) ->
            Printf.sprintf "%s, n=%d, b=%d" (Msts.Spider.to_string spider) n b)
          QCheck.Gen.(
            pair
              (pair (spider_gen ~max_legs:3 ~max_depth:3 ()) (int_range 0 20))
              (int_range 1 3)))
       (fun ((spider, n), buffer) ->
         let s = Msts.Netsim.pull_policy ~buffer spider ~tasks:n in
         Msts.Spider_schedule.task_count s = n && check_spider_feasible s))

let pull_never_beats_optimal =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"pull policy never beats the optimal makespan"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:10 ())
       (fun (spider, n) ->
         QCheck.assume (n > 0);
         Msts.Spider_schedule.makespan (Msts.Netsim.pull_policy spider ~tasks:n)
         >= Msts.Spider_algorithm.min_makespan spider n))

let pull_rejects_bad_args () =
  let spider = Msts.Spider.of_chain figure2_chain in
  Alcotest.check_raises "buffer 0"
    (Invalid_argument "Msts.Netsim.pull_policy: buffer must be >= 1") (fun () ->
      ignore (Msts.Netsim.pull_policy ~buffer:0 spider ~tasks:1))

let suites =
  [
    ( "sim.engine",
      [
        case "time ordering" engine_orders_events;
        case "FIFO within a timestamp" engine_fifo_within_time;
        case "cascading events" engine_cascading;
        case "past scheduling rejected" engine_rejects_past;
        engine_stress;
        case "run drains the queue once" engine_drains_once;
        case "engine.events counts cascades" engine_counts_cascades;
      ] );
    ( "sim.netsim",
      [
        netsim_equals_asap_chain;
        netsim_equals_asap_spider;
        execute_plan_dominates;
        execute_spider_plan_dominates;
        execute_plan_realized_feasible;
        case "infeasible plans rejected" execute_plan_rejects_infeasible;
      ] );
    ( "sim.pull",
      [
        pull_feasible_and_complete;
        pull_never_beats_optimal;
        case "bad arguments rejected" pull_rejects_bad_args;
      ] );
  ]
