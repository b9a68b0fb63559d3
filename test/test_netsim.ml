(* Differential suite: every public Netsim entry point against the frozen
   reservation-based executors of netsim_reference.ml, on random spiders,
   plans, buffers and degraded platforms.  Each pair must agree on every
   schedule entry and on the number of recorded trace events, and the
   recorded trace must pass the invariant checker.  Also unit tests of the
   reference's resource and of the engine ranks the executor relies on. *)

open Helpers
module Ref = Netsim_reference

(* ---------- the reference's reservation resource ---------- *)

let resource_fifo () =
  let e = Ref.Engine.create () in
  let r = Ref.Resource.create e ~name:"port" in
  let starts = ref [] in
  List.iter
    (fun tag ->
      Ref.Resource.request r ~duration:3 ~tag ~on_start:(fun t ->
          starts := (tag, t) :: !starts))
    [ 1; 2; 3 ];
  Ref.Engine.run e;
  Alcotest.(check (list (pair int int))) "sequential grants"
    [ (1, 0); (2, 3); (3, 6) ]
    (List.rev !starts);
  Alcotest.(check int) "served" 3 (Ref.Resource.served r);
  Alcotest.(check int) "idle at" 9 (Ref.Resource.idle_until r);
  Alcotest.(check bool) "log disjoint" true
    (Msts.Intervals.overlap_witness (Ref.Resource.busy_log r) = None)

let resource_respects_now () =
  let e = Ref.Engine.create () in
  let r = Ref.Resource.create e ~name:"r" in
  let granted = ref (-1) in
  Ref.Engine.schedule_at e 10 (fun () ->
      Ref.Resource.request r ~duration:2 ~tag:1 ~on_start:(fun t -> granted := t));
  Ref.Engine.run e;
  Alcotest.(check int) "not before request time" 10 !granted

let resource_rejects_negative () =
  let e = Ref.Engine.create () in
  let r = Ref.Resource.create e ~name:"r" in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Resource.request: negative duration") (fun () ->
      Ref.Resource.request r ~duration:(-1) ~tag:0 ~on_start:(fun _ -> ()))

(* ---------- claimed engine ranks ---------- *)

(* An event scheduled with an earlier claim runs before same-time events
   scheduled after the claim, whenever it was itself scheduled. *)
let claimed_rank_orders_ties () =
  let e = Msts.Engine.create () in
  let log = ref [] in
  let early = Msts.Engine.claim e in
  Msts.Engine.schedule_at e 5 0;
  Msts.Engine.schedule_at e 1 1;
  Msts.Engine.run e (function
    | 0 -> log := "plain" :: !log
    | 1 -> Msts.Engine.schedule_claimed e 5 ~claim:early 2
    | _ -> log := "claimed" :: !log);
  Alcotest.(check (list string)) "claim order" [ "claimed"; "plain" ] (List.rev !log);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_claimed: time 3 is before now (5)") (fun () ->
      Msts.Engine.schedule_claimed e 3 ~claim:(Msts.Engine.claim e) 0)

(* ---------- generators ---------- *)

(* Small latencies and work times make same-instant events common, which
   is where two executors' tie-breaking would part ways. *)
let small_spider = spider_gen ~max_legs:3 ~max_depth:3 ~max_val:4 ()

let sequence_gen spider =
  let addresses = Array.of_list (Msts.Spider.addresses spider) in
  Gen.map
    (fun picks -> Array.of_list (List.map (Array.get addresses) picks))
    (Gen.list_size (Gen.int_range 0 14)
       (Gen.int_range 0 (Array.length addresses - 1)))

(* A feasible plan: either the optimal one for [n] tasks or the ASAP
   schedule of a random destination sequence. *)
let plan_gen spider =
  Gen.oneof
    [
      Gen.map (Msts.Spider_algorithm.schedule_tasks spider) (Gen.int_range 0 12);
      Gen.map (spider_asap spider) (sequence_gen spider);
    ]

(* A same-shape platform: the plan's own, or one processor slowed down and
   its link optionally too. *)
let platform_gen spider =
  let addresses = Array.of_list (Msts.Spider.addresses spider) in
  Gen.oneof
    [
      Gen.return None;
      Gen.map3
        (fun pick work_factor latency_factor ->
          Some
            (Msts.Netsim.degrade ~latency_factor spider
               ~address:addresses.(pick) ~work_factor))
        (Gen.int_range 0 (Array.length addresses - 1))
        (Gen.int_range 1 4) (Gen.int_range 1 3);
    ]

let buffer_gen = Gen.opt (Gen.int_range 1 4)

let print_plan plan = Msts.Serial.spider_schedule_to_string plan

(* ---------- comparison ---------- *)

(* Run [f] under a trace recorder: its result and the recorded trace. *)
let recorded f =
  let r = Msts.Trace.Recorder.create () in
  let result = Msts.Trace.with_recorder r f in
  (result, Msts.Trace.recorded r)

let agree ~what (got, got_trace) (want, want_trace) =
  if Schedule_reference.spider_rows got <> Schedule_reference.spider_rows want then
    QCheck.Test.fail_reportf "%s: entries differ\ngot:\n%s\nwant:\n%s" what
      (print_plan got) (print_plan want);
  if Msts.Trace.length got_trace <> Msts.Trace.length want_trace then
    QCheck.Test.fail_reportf "%s: %d trace events, reference %d" what
      (Msts.Trace.length got_trace) (Msts.Trace.length want_trace);
  (match Msts.Trace.check ~require_nonnegative:true got_trace with
  | [] -> ()
  | v :: _ ->
      QCheck.Test.fail_reportf "%s: trace violation: %s" what
        (explain v));
  true

(* ---------- properties ---------- *)

let sequence_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"eager sequence execution = reference"
       (QCheck.make
          ~print:(fun (spider, _) -> Msts.Spider.to_string spider)
          Gen.(small_spider >>= fun s -> map (fun seq -> (s, seq)) (sequence_gen s)))
       (fun (spider, seq) ->
         agree ~what:"eager sequence execution"
           (recorded (fun () -> Eager.spider_schedule spider seq))
           (recorded (fun () -> Ref.run_sequence_spider spider seq))))

let execute_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"execute = reference"
       (QCheck.make
          ~print:(fun (_, plan) -> print_plan plan)
          Gen.(small_spider >>= fun s -> map (fun p -> (s, p)) (plan_gen s)))
       (fun (_, plan) ->
         agree ~what:"execute"
           (recorded (fun () ->
                (Msts.Netsim.execute (Msts.Plan.Spider plan)).Msts.Netsim.realized))
           (recorded (fun () -> Ref.execute plan))))

let execute_chain_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:150 ~name:"execute (chain plans) = reference"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ~max_val:4 ())
       (fun (chain, n) ->
         let plan = Msts.Chain_algorithm.schedule chain n in
         agree ~what:"execute chain"
           (recorded (fun () ->
                (Msts.Netsim.execute (Msts.Plan.Chain plan)).Msts.Netsim.realized))
           (recorded (fun () ->
                Ref.execute (Msts.Spider_schedule.of_chain_schedule plan)))))

let replay_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"replay_routing ?buffer ?on = reference"
       (QCheck.make
          ~print:(fun (plan, buffer, on) ->
            Printf.sprintf "%sbuffer=%s on=%s" (print_plan plan)
              (match buffer with None -> "-" | Some b -> string_of_int b)
              (match on with None -> "-" | Some s -> Msts.Spider.to_string s))
          Gen.(
            small_spider >>= fun s ->
            triple (plan_gen s) buffer_gen (platform_gen s)))
       (fun (plan, buffer, on) ->
         agree ~what:"replay_routing"
           (recorded (fun () ->
                (Msts.Netsim.replay_routing ?buffer ?on plan).Msts.Netsim.realized))
           (recorded (fun () -> Ref.replay_routing ?buffer ?on plan))))

let pull_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:400 ~name:"pull_policy ?buffer = reference"
       (QCheck.make
          ~print:(fun ((spider, n), b) ->
            Printf.sprintf "%s, n=%d, b=%d" (Msts.Spider.to_string spider) n b)
          Gen.(pair (pair small_spider (int_range 0 16)) (int_range 1 4)))
       (fun ((spider, tasks), buffer) ->
         agree ~what:"pull_policy"
           (recorded (fun () -> Msts.Netsim.pull_policy ~buffer spider ~tasks))
           (recorded (fun () -> Ref.pull_policy ~buffer spider ~tasks))))

let fault_free_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"empty-trace replay/pull_under_faults = reference"
       (QCheck.make
          ~print:(fun (plan, _) -> print_plan plan)
          Gen.(small_spider >>= fun s -> pair (plan_gen s) (int_range 0 12)))
       (fun (plan, tasks) ->
         let spider = Msts.Spider_schedule.spider plan in
         ignore
           (agree ~what:"replay_under_faults"
              (recorded (fun () ->
                   (Msts.Netsim.replay_under_faults plan).Msts.Netsim.observed))
              (recorded (fun () -> Ref.replay_routing plan)));
         agree ~what:"pull_under_faults"
           (recorded (fun () ->
                (Msts.Netsim.pull_under_faults spider ~tasks).Msts.Netsim.observed))
           (recorded (fun () -> Ref.pull_policy ~buffer:1 spider ~tasks))))

let suites =
  [
    ( "sim.resource",
      [
        case "FIFO grants" resource_fifo;
        case "grants respect current time" resource_respects_now;
        case "negative duration rejected" resource_rejects_negative;
      ] );
    ("sim.claim", [ case "claimed ranks order ties" claimed_rank_orders_ties ]);
    ( "sim.reference",
      [
        sequence_matches_reference;
        execute_matches_reference;
        execute_chain_matches_reference;
        replay_matches_reference;
        pull_matches_reference;
        fault_free_matches_reference;
      ] );
  ]
