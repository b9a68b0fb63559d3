(* Tests for Msts_schedule: communication vectors (Definition 3),
   schedules, the feasibility checker (Definition 1), intervals, Gantt,
   SVG and serialisation. *)

open Helpers

module Gen = QCheck.Gen

(* ---------- Comm_vector: Definition 3 ---------- *)

let vec = Array.of_list

let cv_first_coordinate_wins () =
  (* first differing coordinate decides *)
  Alcotest.(check bool) "a < b" true
    (Msts.Comm_vector.precedes (vec [ 1; 9 ]) (vec [ 2; 0 ]));
  Alcotest.(check bool) "b > a" false
    (Msts.Comm_vector.precedes (vec [ 2; 0 ]) (vec [ 1; 9 ]))

let cv_prefix_rule () =
  (* equal common prefix: the LONGER vector is the smaller one *)
  Alcotest.(check bool) "longer < shorter" true
    (Msts.Comm_vector.precedes (vec [ 3; 4; 5 ]) (vec [ 3; 4 ]));
  Alcotest.(check bool) "shorter > longer" false
    (Msts.Comm_vector.precedes (vec [ 3; 4 ]) (vec [ 3; 4; 5 ]));
  Alcotest.(check bool) "equal vectors: neither precedes" false
    (Msts.Comm_vector.precedes (vec [ 3; 4 ]) (vec [ 3; 4 ]))

let cv_later_coordinate_breaks_ties () =
  Alcotest.(check bool) "second coordinate decides" true
    (Msts.Comm_vector.precedes (vec [ 3; 4 ]) (vec [ 3; 5 ]))

let int_vec_gen = Gen.(list_size (int_range 1 5) (int_range (-10) 10) |> map vec)

let cv_arb =
  QCheck.make ~print:Msts.Comm_vector.to_string int_vec_gen

let cv_total_order_antisym =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Def.3 order is asymmetric and total"
       (QCheck.pair cv_arb cv_arb)
       (fun (a, b) ->
         let ab = Msts.Comm_vector.precedes a b
         and ba = Msts.Comm_vector.precedes b a in
         not (ab && ba) && (ab || ba || a = b)))

let cv_total_order_transitive =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Def.3 order is transitive"
       (QCheck.triple cv_arb cv_arb cv_arb)
       (fun (a, b, c) ->
         let ( <= ) x y = x = y || Msts.Comm_vector.precedes x y in
         not (a <= b && b <= c) || a <= c))

let cv_compare_reflexive =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Def.3 order is irreflexive" cv_arb
       (fun a -> not (Msts.Comm_vector.precedes a a)))

(* model-based check of Definition 3: an independent list-shaped
   specification written directly from the paper's two bullet points *)
let spec_compare a b =
  let a = Array.to_list a and b = Array.to_list b in
  let rec common_prefix_equal xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' -> x = y && common_prefix_equal xs' ys'
    | _ -> true
  in
  let rec first_diff xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' -> if x = y then first_diff xs' ys' else Some (x, y)
    | _ -> None
  in
  match first_diff a b with
  | Some (x, y) -> compare x y
  | None ->
      assert (common_prefix_equal a b);
      compare (List.length b) (List.length a)

let cv_matches_specification =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"Def.3 order matches its list specification"
       (QCheck.pair cv_arb cv_arb)
       (fun (a, b) -> Msts.Comm_vector.precedes a b = (spec_compare a b < 0)))

let cv_shift () =
  Alcotest.(check bool) "shift" true (Msts.Comm_vector.shift 2 (vec [ 5; 7 ]) = vec [ 3; 5 ])

(* ---------- Intervals ---------- *)

let iv start duration tag = { Msts.Intervals.start; duration; tag }

let disjoint ivs = Msts.Intervals.overlap_witness ivs = None

let intervals_disjoint () =
  Alcotest.(check bool) "disjoint" true (disjoint [ iv 0 2 1; iv 2 2 2; iv 10 1 3 ]);
  Alcotest.(check bool) "overlap" false (disjoint [ iv 0 3 1; iv 2 2 2 ]);
  Alcotest.(check bool) "zero-length never overlaps" true
    (disjoint [ iv 0 0 1; iv 0 5 2; iv 0 0 3 ])

let intervals_witness_nonadjacent () =
  (* a long interval hidden behind a short one must still be caught *)
  match Msts.Intervals.overlap_witness [ iv 0 10 1; iv 1 2 2; iv 5 1 3 ] with
  | Some _ -> ()
  | None -> Alcotest.fail "missed the overlap"

(* ---------- Schedule structure ---------- *)

let entry proc start comms = { Schedule_reference.Schedule.proc; start; comms = vec comms }

let fig2_schedule () =
  (* The paper's Figure 2 schedule, written out by hand. *)
  Schedule_reference.chain_plan figure2_chain
    [|
      entry 1 2 [ 0 ];
      entry 1 5 [ 2 ];
      entry 2 9 [ 4; 6 ];
      entry 1 8 [ 6 ];
      entry 1 11 [ 9 ];
    |]

(* the busy fraction the measures report: link 2 of Figure 2 carries one
   transfer (c2 = 3) over the 14-unit makespan *)
let intervals_utilisation () =
  let m = Msts.Metrics.of_plan (Msts.Plan.Chain (fig2_schedule ())) in
  Alcotest.(check (Alcotest.float 1e-9)) "3/14 busy" (3.0 /. 14.0)
    (Msts.Metrics.fraction m m.nodes.(1).link_busy)

let schedule_structure () =
  let s = fig2_schedule () in
  Alcotest.(check int) "tasks" 5 (Msts.Schedule.task_count s);
  Alcotest.(check int) "makespan" 14 (Msts.Schedule.makespan s);
  Alcotest.(check int) "start time" 0 (start_time s);
  Alcotest.(check (list int)) "P1 tasks" [ 1; 2; 4; 5 ] (Msts.Schedule.tasks_on s 1);
  Alcotest.(check (list int)) "P2 tasks" [ 3 ] (Msts.Schedule.tasks_on s 2);
  Alcotest.(check (list int)) "emission order" [ 1; 2; 3; 4; 5 ] (emission_order s)

let schedule_validation () =
  let build ~offsets ~emissions =
    ignore (Msts.Schedule.of_columns figure2_chain ~starts:[| 0 |] ~offsets ~emissions)
  in
  Alcotest.check_raises "bad proc"
    (Invalid_argument "Schedule.of_columns: task 1 on processor 7 outside 1..2")
    (fun () -> build ~offsets:[| 0; 7 |] ~emissions:(Array.make 7 0));
  Alcotest.check_raises "offsets past the emissions"
    (Invalid_argument "Schedule.of_columns: offsets run from 0 to 2 over 1 emissions")
    (fun () -> build ~offsets:[| 0; 2 |] ~emissions:[| 0 |])

let schedule_shift_normalise () =
  let s = fig2_schedule () in
  let shifted = shift_schedule (-3) s in
  Alcotest.(check int) "shifted start" 3 (start_time shifted);
  Alcotest.(check int) "shifted makespan" 17 (Msts.Schedule.makespan shifted);
  Alcotest.(check bool) "normalise undoes shift" true
    (Msts.Schedule.equal s (Msts.Schedule.normalise shifted));
  Alcotest.(check bool) "equal modulo shift" true
    (Msts.Schedule.equal_modulo_shift s shifted)

let schedule_restrict () =
  let s = fig2_schedule () in
  let sub = Msts.Schedule.restrict_beyond_first s in
  Alcotest.(check int) "one task beyond P1" 1 (Msts.Schedule.task_count sub);
  let e = Schedule_reference.chain_row sub 1 in
  Alcotest.(check int) "on sub-chain P1" 1 e.proc;
  Alcotest.(check bool) "comm vector dropped first" true (e.comms = vec [ 6 ])

let schedule_intervals () =
  let s = fig2_schedule () in
  let link1 = Feasibility_oracle.link_intervals s 1 in
  Alcotest.(check int) "five transfers on link 1" 5 (List.length link1);
  Alcotest.(check int) "one transfer on link 2" 1
    (List.length (Feasibility_oracle.link_intervals s 2));
  Alcotest.(check bool) "link 1 disjoint" true
    (Msts.Intervals.overlap_witness link1 = None)

(* ---------- Feasibility: each property violated in isolation ---------- *)

(* The frozen Definition 1 checker's verdict, once [Plan.check] has been
   seen to spell the same messages. *)
let audit ?require_nonnegative s =
  let vs = Feasibility_oracle.check ?require_nonnegative s in
  Alcotest.(check (list string)) "Plan.check agrees with the oracle"
    (List.map Feasibility_oracle.violation_to_string vs)
    (Msts.Plan.check ?require_nonnegative (Msts.Plan.Chain s));
  vs

let feasible_fig2 () =
  Alcotest.(check (list string)) "figure 2 is feasible" []
    (List.map Feasibility_oracle.violation_to_string
       (audit ~require_nonnegative:true (fig2_schedule ())))

let property1_detected () =
  (* re-emitted on link 2 before received: C2 < C1 + c1 *)
  let s = Schedule_reference.chain_plan figure2_chain [| entry 2 20 [ 0; 1 ] |] in
  match audit s with
  | [ Feasibility_oracle.Reemitted_before_received { task = 1; link = 2 } ] -> ()
  | vs ->
      Alcotest.failf "expected property-1 violation, got [%s]"
        (String.concat "; " (List.map Feasibility_oracle.violation_to_string vs))

let property2_detected () =
  (* starts at 3 but only fully received at 0+2=2 on P1... use start 1 *)
  let s = Schedule_reference.chain_plan figure2_chain [| entry 1 1 [ 0 ] |] in
  match audit s with
  | [ Feasibility_oracle.Started_before_received { task = 1 } ] -> ()
  | vs ->
      Alcotest.failf "expected property-2 violation, got [%s]"
        (String.concat "; " (List.map Feasibility_oracle.violation_to_string vs))

let property3_detected () =
  (* two tasks overlap on P1 (w1 = 3) *)
  let s =
    Schedule_reference.chain_plan figure2_chain [| entry 1 2 [ 0 ]; entry 1 4 [ 2 ] |]
  in
  match audit s with
  | [ Feasibility_oracle.Computation_overlap { proc = 1; _ } ] -> ()
  | vs ->
      Alcotest.failf "expected property-3 violation, got [%s]"
        (String.concat "; " (List.map Feasibility_oracle.violation_to_string vs))

let property4_detected () =
  (* transfers overlap on link 1 (c1 = 2) *)
  let s =
    Schedule_reference.chain_plan figure2_chain [| entry 1 3 [ 0 ]; entry 1 6 [ 1 ] |]
  in
  let has_comm_overlap =
    List.exists
      (function Feasibility_oracle.Communication_overlap { link = 1; _ } -> true | _ -> false)
      (audit s)
  in
  Alcotest.(check bool) "link overlap detected" true has_comm_overlap

let negative_dates_detected () =
  let s = Schedule_reference.chain_plan figure2_chain [| entry 1 0 [ -2 ] |] in
  Alcotest.(check bool) "allowed without flag" true
    (List.for_all
       (function Feasibility_oracle.Negative_date _ -> false | _ -> true)
       (audit s));
  Alcotest.(check bool) "flagged with require_nonnegative" true
    (List.exists
       (function Feasibility_oracle.Negative_date { task = 1 } -> true | _ -> false)
       (audit ~require_nonnegative:true s))

let meets_deadline () =
  let s = fig2_schedule () in
  Alcotest.(check bool) "meets 14" true (Feasibility_oracle.meets_deadline s ~deadline:14);
  Alcotest.(check bool) "misses 13" false (Feasibility_oracle.meets_deadline s ~deadline:13)

(* The chain audit ([Plan.check] on the one-leg spider view) spells, in
   order, exactly the frozen checker's messages on optimal schedules whose
   starts and emissions are each moved by -6..6, with and without the
   non-negative dates rule. *)
let perturbed_chain_gen =
  let open Gen in
  let nudge = frequency [ (2, return 0); (1, int_range (-6) 6) ] in
  let* chain = chain_gen ~max_p:4 ~max_val:6 () in
  let* n = int_range 1 10 in
  let base = Schedule_reference.chain_rows (Msts.Chain_algorithm.schedule chain n) in
  let+ entries =
    flatten_a
      (Array.map
         (fun (e : Schedule_reference.Schedule.entry) ->
           let* ds = nudge and* dc = array_size (return (Array.length e.comms)) nudge in
           return { e with start = e.start + ds; comms = Array.map2 ( + ) e.comms dc })
         base)
  in
  Schedule_reference.chain_plan chain entries

let chain_check_matches_oracle =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"chain Plan.check spells the frozen checker's violations"
       (QCheck.make ~print:Msts.Schedule.to_string perturbed_chain_gen)
       (fun s ->
         List.for_all
           (fun require_nonnegative ->
             let expected =
               List.map Feasibility_oracle.violation_to_string
                 (Feasibility_oracle.check ~require_nonnegative s)
             in
             let got = Msts.Plan.check ~require_nonnegative (Msts.Plan.Chain s) in
             got = expected
             || QCheck.Test.fail_reportf "require_nonnegative=%b: got [%s], oracle [%s]"
                  require_nonnegative (String.concat "; " got) (String.concat "; " expected))
           [ false; true ]))

(* ---------- Spider schedules ---------- *)

let two_leg_spider =
  Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ]

let sentry leg depth start comms =
  { Schedule_reference.Spider_schedule.address = { Msts.Spider.leg; depth }; start; comms = vec comms }

let spider_schedule_basics () =
  let s =
    Schedule_reference.spider_plan two_leg_spider
      [| sentry 1 1 2 [ 0 ]; sentry 2 1 3 [ 2 ] |]
  in
  Alcotest.(check int) "tasks" 2 (Msts.Spider_schedule.task_count s);
  Alcotest.(check int) "makespan" 7 (Msts.Spider_schedule.makespan s);
  Alcotest.(check (list int)) "leg 1" [ 1 ] (Msts.Spider_schedule.tasks_on_leg s 1);
  Alcotest.(check (list int)) "leg 2" [ 2 ] (Msts.Spider_schedule.tasks_on_leg s 2);
  Alcotest.(check (list string)) "feasible" []
    (Msts.Spider_schedule.check ~require_nonnegative:true s)

let spider_master_port_conflict () =
  (* both emissions at 0: master sends two tasks at once *)
  let s =
    Schedule_reference.spider_plan two_leg_spider
      [| sentry 1 1 2 [ 0 ]; sentry 2 1 10 [ 0 ] |]
  in
  Alcotest.(check bool) "master port violation" true
    (List.exists
       (fun msg -> String.length msg >= 11 && String.sub msg 0 11 = "master port")
       (Msts.Spider_schedule.check s))

let spider_leg_violation_reported () =
  let s = Schedule_reference.spider_plan two_leg_spider [| sentry 1 1 1 [ 0 ] |] in
  Alcotest.(check bool) "leg 1 violation" true
    (List.exists
       (fun msg -> String.length msg >= 5 && String.sub msg 0 5 = "leg 1")
       (Msts.Spider_schedule.check s))

let spider_schedule_validation () =
  let build ~legs ~offsets ~emissions =
    ignore
      (Msts.Spider_schedule.of_columns two_leg_spider ~legs ~starts:[| 0 |] ~offsets ~emissions)
  in
  Alcotest.check_raises "unknown leg"
    (Invalid_argument "Spider_schedule.of_columns: task 1 on leg 5") (fun () ->
      build ~legs:[| 5 |] ~offsets:[| 0; 1 |] ~emissions:[| 0 |]);
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Spider_schedule.of_columns: task 1 at depth 2 on leg 2")
    (fun () -> build ~legs:[| 2 |] ~offsets:[| 0; 2 |] ~emissions:[| 0; 0 |])

let spider_schedule_splice () =
  let s =
    Schedule_reference.spider_plan two_leg_spider
      [| sentry 1 1 2 [ 0 ]; sentry 2 1 3 [ 2 ]; sentry 1 2 8 [ 3; 5 ] |]
  in
  (* shift re-anchors every date *)
  let moved = Msts.Spider_schedule.shift s ~delta:4 in
  let e = (Schedule_reference.spider_rows moved).(2) in
  Alcotest.(check int) "start moved" 12 e.start;
  Alcotest.(check (array int)) "comms moved" [| 7; 9 |]
    e.comms;
  Alcotest.check_raises "negative dates rejected"
    (Invalid_argument "Spider_schedule.shift: negative date after shift")
    (fun () -> ignore (Msts.Spider_schedule.shift s ~delta:(-1)));
  (* filter keeps a subset in order *)
  let odd = Msts.Spider_schedule.filter_tasks s ~keep:(fun i -> i mod 2 = 1) in
  Alcotest.(check int) "two survivors" 2 (Msts.Spider_schedule.task_count odd);
  Alcotest.(check int) "order preserved" 8
    (Msts.Spider_schedule.start odd 2);
  (* concat splices two partial schedules *)
  let spliced = Msts.Spider_schedule.concat odd (Msts.Spider_schedule.filter_tasks s ~keep:(( = ) 2)) in
  Alcotest.(check int) "spliced tasks" 3 (Msts.Spider_schedule.task_count spliced);
  Alcotest.(check int) "second part appended" 3
    (Msts.Spider_schedule.start spliced 3);
  let other = Schedule_reference.spider_plan (Msts.Spider.of_chain figure2_chain) [||] in
  Alcotest.check_raises "different spiders rejected"
    (Invalid_argument "Spider_schedule.concat: schedules are on different spiders")
    (fun () -> ignore (Msts.Spider_schedule.concat s other))

let spider_of_chain_schedule () =
  let s = fig2_schedule () in
  let sp = Msts.Spider_schedule.of_chain_schedule s in
  Alcotest.(check int) "same makespan" (Msts.Schedule.makespan s)
    (Msts.Spider_schedule.makespan sp);
  Alcotest.(check (list string)) "still feasible" []
    (Msts.Spider_schedule.check ~require_nonnegative:true sp);
  let back = Msts.Spider_schedule.leg_schedule sp 1 in
  Alcotest.(check bool) "leg schedule round-trips" true (Msts.Schedule.equal s back)

(* ---------- Gantt & SVG ---------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let gantt_renders () =
  let s = fig2_schedule () in
  let chart = Msts.Plan.gantt ~width:40 (Msts.Plan.Chain s) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle chart))
    [ "link 1"; "proc 1"; "link 2"; "proc 2" ]

let gantt_symbols () =
  (* one unit task per time slot on a single processor: its row spells
     the symbols of tasks 1..40 in order *)
  let s = Msts.Chain_algorithm.schedule (Msts.Chain.of_pairs [ (1, 1) ]) 40 in
  Alcotest.(check bool) "1-9, then a-z, then #" true
    (contains
       ~sub:"123456789abcdefghijklmnopqrstuvwxyz#####"
       (Msts.Plan.gantt ~width:100 (Msts.Plan.Chain s)))

let gantt_scales_down () =
  let chain = Msts.Chain.of_pairs [ (1, 1) ] in
  let s = Msts.Chain_algorithm.schedule chain 300 in
  let chart = Msts.Plan.gantt ~width:50 (Msts.Plan.Chain s) in
  let first_line = List.hd (String.split_on_char '\n' chart) in
  Alcotest.(check bool) "fits width" true (String.length first_line < 80)

let svg_renders () =
  let svg = Msts.Plan.svg (Msts.Plan.Chain (fig2_schedule ())) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle svg))
    [ "<svg"; "</svg>"; "link 1"; "proc 2"; "rect" ]

let spider_gantt_renders () =
  let s =
    Schedule_reference.spider_plan two_leg_spider
      [| sentry 1 1 2 [ 0 ]; sentry 2 1 3 [ 2 ] |]
  in
  let chart = Msts.Plan.gantt ~width:40 (Msts.Plan.Spider s) in
  Alcotest.(check bool) "master row" true (contains ~sub:"master port" chart);
  let svg = Msts.Plan.svg (Msts.Plan.Spider s) in
  Alcotest.(check bool) "svg master row" true (contains ~sub:"master port" svg)

(* ---------- Serialisation ---------- *)

let serial_roundtrip_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"chain schedule serialisation round-trips"
       (chain_with_n_arb ~max_p:4 ~max_n:8 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         match
           Msts.Serial.schedule_of_string chain (Msts.Serial.schedule_to_string s)
         with
         | Ok parsed -> Msts.Schedule.equal s parsed
         | Error _ -> false))

let serial_roundtrip_spider =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider schedule serialisation round-trips"
       (spider_with_n_arb ~max_n:6 ())
       (fun (spider, n) ->
         let s = Msts.Spider_algorithm.schedule_tasks spider n in
         match
           Msts.Serial.spider_schedule_of_string spider
             (Msts.Serial.spider_schedule_to_string s)
         with
         | Ok parsed ->
             Msts.Serial.spider_schedule_to_string parsed
             = Msts.Serial.spider_schedule_to_string s
         | Error _ -> false))

let serial_errors () =
  let expect_error text =
    match Msts.Serial.schedule_of_string figure2_chain text with
    | Ok _ -> Alcotest.fail ("parsed: " ^ text)
    | Error _ -> ()
  in
  expect_error "";
  expect_error "spider-schedule\n";
  expect_error "chain-schedule\nnope 1 2\n";
  expect_error "chain-schedule\ntask 1 2\n";
  (* comm count mismatch *)
  expect_error "chain-schedule\ntask 2 5 0\n";
  (* processor out of range -> structural error from Schedule_reference.chain_plan *)
  expect_error "chain-schedule\ntask 9 5 0 1 2 3 4 5 6 7 8\n"

let suites =
  [
    ( "schedule.comm_vector",
      [
        case "first coordinate wins" cv_first_coordinate_wins;
        case "prefix rule: shorter is greater" cv_prefix_rule;
        case "later coordinates break ties" cv_later_coordinate_breaks_ties;
        cv_total_order_antisym;
        cv_total_order_transitive;
        cv_compare_reflexive;
        cv_matches_specification;
        case "shift/target" cv_shift;
      ] );
    ( "schedule.intervals",
      [
        case "disjointness" intervals_disjoint;
        case "non-adjacent overlap caught" intervals_witness_nonadjacent;
        case "utilisation" intervals_utilisation;
      ] );
    ( "schedule.structure",
      [
        case "figure-2 views" schedule_structure;
        case "structural validation" schedule_validation;
        case "shift and normalise" schedule_shift_normalise;
        case "restrict beyond first" schedule_restrict;
        case "resource intervals" schedule_intervals;
      ] );
    ( "schedule.feasibility",
      [
        case "figure 2 is feasible" feasible_fig2;
        case "property 1 (store-and-forward)" property1_detected;
        case "property 2 (receive before start)" property2_detected;
        case "property 3 (computation overlap)" property3_detected;
        case "property 4 (communication overlap)" property4_detected;
        case "negative dates" negative_dates_detected;
        case "meets_deadline" meets_deadline;
        chain_check_matches_oracle;
      ] );
    ( "schedule.spider",
      [
        case "basics" spider_schedule_basics;
        case "master one-port conflict" spider_master_port_conflict;
        case "leg violations reported" spider_leg_violation_reported;
        case "structural validation" spider_schedule_validation;
        case "shift/filter/concat (replan splicing)" spider_schedule_splice;
        case "chain schedule as one-leg spider" spider_of_chain_schedule;
      ] );
    ( "schedule.render",
      [
        case "ascii gantt" gantt_renders;
        case "task symbols" gantt_symbols;
        case "scaling" gantt_scales_down;
        case "svg" svg_renders;
        case "spider charts" spider_gantt_renders;
      ] );
    ( "schedule.serial",
      [
        serial_roundtrip_chain;
        serial_roundtrip_spider;
        case "parse errors" serial_errors;
      ] );
  ]
