(* Golden-output tests: exact renderings of the paper's worked example.

   These pin the user-visible artefacts byte for byte, so accidental
   changes to formatting (or, worse, to the schedule itself) show up as a
   readable diff. *)

open Helpers

let fig2 () = Msts.Chain_algorithm.schedule figure2_chain 5

let golden_gantt () =
  let expected =
    String.concat "\n"
      [
        "        0         10  ";
        "link 1 |11223344.55...|";
        "proc 1 |..111222444555|";
        "link 2 |......333.....|";
        "proc 2 |.........33333|";
      ]
  in
  Alcotest.(check string) "figure-2 gantt" expected (Msts.Plan.gantt ~width:70 (Msts.Plan.Chain (fig2 ())))

let golden_schedule_text () =
  let expected =
    String.concat "\n"
      [
        "schedule on chain[(c=2,w=3); (c=3,w=5)] (makespan 14):";
        "  task 1 -> P1, start 2, comms {0}";
        "  task 2 -> P1, start 5, comms {2}";
        "  task 3 -> P2, start 9, comms {4; 6}";
        "  task 4 -> P1, start 8, comms {6}";
        "  task 5 -> P1, start 11, comms {9}";
        "";
      ]
  in
  Alcotest.(check string) "figure-2 listing" expected (Msts.Schedule.to_string (fig2 ()))

let golden_serialisation () =
  let expected =
    String.concat "\n"
      [
        "chain-schedule";
        "task 1 2 0";
        "task 1 5 2";
        "task 2 9 4 6";
        "task 1 8 6";
        "task 1 11 9";
        "";
      ]
  in
  Alcotest.(check string) "figure-2 plan file" expected
    (Msts.Serial.schedule_to_string (fig2 ()))

let golden_platform_file () =
  Alcotest.(check string) "figure-2 platform file" "chain\n2 3\n3 5\n"
    (Msts.Platform_format.platform_to_string
       (Msts.Platform_format.Chain_platform figure2_chain))

let golden_trace_fragment () =
  (* the first placement of the n=5 construction, exactly as narrated *)
  let text = Msts.Chain_trace.render (Msts.Chain_trace.run figure2_chain 5) in
  let expected_head =
    String.concat "\n"
      [
        "Backward construction on chain[(c=2,w=3); (c=3,w=5)], n = 5, horizon T-inf = 17";
        "";
        "Placing task 5:";
        "  candidate for P1: {12}   <- greatest (Def. 3)";
        "  candidate for P2: {7; 9}";
        "  => P(5) = 1, T(5) = 14 (before shift)";
      ]
  in
  let head = String.sub text 0 (String.length expected_head) in
  Alcotest.(check string) "trace head" expected_head head

let golden_spider_gantt () =
  (* two-leg spider over the Figure-2 chain; global task ids on every row *)
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ]
  in
  let sched = Msts.Spider_algorithm.schedule_tasks spider 8 in
  let expected =
    String.concat "\n"
      [
        "              0         10    ";
        "master port  |1223345566788...|";
        "leg 1 link 1 |.2233.5566.88...|";
        "leg 1 proc 1 |....222333666888|";
        "leg 1 link 2 |........555.....|";
        "leg 1 proc 2 |...........55555|";
        "leg 2 link 1 |1....4....7.....|";
        "leg 2 proc 1 |....111144447777|";
      ]
  in
  Alcotest.(check string) "spider gantt" expected
    (Msts.Plan.gantt ~width:60 (Msts.Plan.Spider sched))

let suites =
  [
    ( "golden.figure2",
      [
        case "gantt chart" golden_gantt;
        case "schedule listing" golden_schedule_text;
        case "plan serialisation" golden_serialisation;
        case "platform file" golden_platform_file;
        case "trace narration" golden_trace_fragment;
        case "spider gantt with global task ids" golden_spider_gantt;
      ] );
  ]
