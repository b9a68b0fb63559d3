(* Tests for the spider pipeline trace. *)

open Helpers

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let fig7_trace () =
  (* the one-leg spider over the Figure-2 chain at T_lim = 14 *)
  let spider = Msts.Spider.of_chain figure2_chain in
  let trace = Msts.Spider_trace.run spider ~deadline:14 in
  Alcotest.(check int) "five tasks on the leg" 5 trace.Msts.Spider_trace.leg_tasks.(0);
  Alcotest.(check int) "five virtual nodes" 5
    (List.length trace.Msts.Spider_trace.virtual_nodes);
  Alcotest.(check int) "five accepted" 5
    (List.length trace.Msts.Spider_trace.accepted);
  (* emission order is by decreasing virtual work, back-to-back *)
  let emissions =
    List.map (fun a -> a.Msts.Spider_trace.emission) trace.Msts.Spider_trace.accepted
  in
  Alcotest.(check (list int)) "back-to-back emissions" [ 0; 2; 4; 6; 8 ] emissions;
  let works =
    List.map (fun a -> a.Msts.Spider_trace.virtual_work) trace.Msts.Spider_trace.accepted
  in
  Alcotest.(check (list int)) "decreasing works" [ 12; 10; 8; 6; 3 ] works;
  (* Lemma 3 visible in the trace: re-stamped emissions never later *)
  List.iter
    (fun a ->
      Alcotest.(check bool) "never later" true
        (a.Msts.Spider_trace.emission <= a.Msts.Spider_trace.original_emission))
    trace.Msts.Spider_trace.accepted

let trace_result_matches_algorithm =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"trace result equals the plain algorithm's"
       (QCheck.make
          ~print:(fun (spider, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Spider.to_string spider) d)
          QCheck.Gen.(pair (spider_gen ~max_legs:3 ~max_depth:2 ()) (int_range 0 40)))
       (fun (spider, deadline) ->
         let trace = Msts.Spider_trace.run spider ~deadline in
         Msts.Serial.spider_schedule_to_string trace.Msts.Spider_trace.result
         = Msts.Serial.spider_schedule_to_string
             (Msts.Spider_algorithm.schedule spider ~deadline)))

let trace_renders () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ]
  in
  let text = Msts.Spider_trace.render (Msts.Spider_trace.run spider ~deadline:14) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle text))
    [
      "Step 1";
      "Steps 2-3";
      "Step 4";
      "Step 5";
      "leg 1";
      "leg 2";
      "Lemma 3";
      "T_lim = 14";
    ]

let trace_rejects_negative () =
  let spider = Msts.Spider.of_chain figure2_chain in
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Spider algorithm: negative deadline") (fun () ->
      ignore (Msts.Spider_trace.run spider ~deadline:(-1)));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Spider algorithm: negative budget") (fun () ->
      ignore (Msts.Spider_trace.run ~budget:(-1) spider ~deadline:14))

(* [msts generate --kind spider --size 4 --seed 7]: OPT for 20 tasks is 78. *)
let generated_spider =
  Msts.Spider.of_legs
    (List.map Msts.Chain.of_pairs
       [ [ (2, 19); (3, 10) ]; [ (10, 9) ]; [ (7, 14) ]; [ (4, 19); (7, 15) ] ])

(* What [msts explain -n 20] costs: the legs built once and allocated once,
   for the plan and the narration alike. *)
let explain_cost () =
  let spider = generated_spider in
  let deadline = Msts.Spider_algorithm.min_makespan spider 20 in
  Alcotest.(check int) "OPT" 78 deadline;
  let mem = Msts.Obs.Memory.create () in
  let trace =
    Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () ->
        Msts.Spider_trace.run ~budget:20 spider ~deadline)
  in
  let calls name =
    match List.assoc_opt name (Msts.Obs.Memory.spans mem) with
    | Some stat -> stat.Msts.Obs.Memory.calls
    | None -> 0
  in
  Alcotest.(check int) "spider.leg_schedules" 1 (calls "spider.leg_schedules");
  Alcotest.(check int) "chain.deadline.schedule" 4 (calls "chain.deadline.schedule");
  Alcotest.(check int) "fork.allocate" 1 (calls "fork.allocate");
  Alcotest.(check int) "chain.tasks_placed" 29
    (Msts.Obs.Memory.counter mem "chain.tasks_placed");
  Alcotest.(check int) "spider.virtual_nodes" 29
    (Msts.Obs.Memory.counter mem "spider.virtual_nodes");
  Alcotest.(check int) "20 tasks" 20
    (Msts.Spider_schedule.task_count trace.Msts.Spider_trace.result)

(* Spiders whose legs share first-link latencies (c1 in 1..2), so the
   allocation order breaks many ties by work, leg and rank. *)
let tied_spider_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun legs ->
    list_size (return legs)
      (pair (int_range 1 2)
         (list_size (int_range 0 2) (pair (int_range 1 6) (int_range 1 6)))
      >>= fun (c1, rest) ->
      int_range 1 6 >|= fun w1 -> Msts.Chain.of_pairs ((c1, w1) :: rest))
    >>= fun chains ->
    int_range 1 6 >|= fun n -> (Msts.Spider.of_legs chains, n))

(* The narration's steps against the frozen list pipeline of
   [Kernel_reference] at every deadline in [0, OPT + 2], with and without
   a budget: per-leg counts, the virtual nodes in allocation order, and
   every Step-4 row.  Each Step-4 emission is also the first comm of the
   plan's entry at the same position. *)
let trace_matches_list_pipeline =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"trace steps = frozen list pipeline (counts, nodes, Step-4 rows)"
       (QCheck.make
          ~print:(fun (spider, n) ->
            Printf.sprintf "%s, n=%d" (Msts.Spider.to_string spider) n)
          tied_spider_gen)
       (fun (spider, n) ->
         let opt = Msts.Spider_algorithm.min_makespan spider n in
         List.for_all
           (fun budget ->
             List.for_all
               (fun deadline ->
                 let trace = Msts.Spider_trace.run ?budget spider ~deadline in
                 let legs = Kernel_reference.leg_schedules ?budget spider ~deadline in
                 let nodes =
                   Kernel_reference.allocation_order
                     (Kernel_reference.virtual_fork spider ~deadline legs)
                 in
                 let rows =
                   List.map
                     (fun { Kernel_reference.node; emission; position } ->
                       let leg = node.Msts.Fork_expansion.slave in
                       let leg_task =
                         Kernel_reference.task_of_rank legs.(leg - 1)
                           ~rank:node.Msts.Fork_expansion.rank
                       in
                       {
                         Msts.Spider_trace.position;
                         leg;
                         leg_task;
                         emission;
                         original_emission =
                           Msts.Schedule.emission legs.(leg - 1) leg_task 1;
                         virtual_work = node.Msts.Fork_expansion.work;
                       })
                     (Kernel_reference.allocate nodes ~deadline
                        ~budget:(Option.value budget ~default:max_int))
                 in
                 let entries = Schedule_reference.spider_rows trace.Msts.Spider_trace.result in
                 trace.Msts.Spider_trace.leg_tasks = Array.map Msts.Schedule.task_count legs
                 && trace.Msts.Spider_trace.virtual_nodes = nodes
                 && trace.Msts.Spider_trace.accepted = rows
                 && Array.length entries = List.length rows
                 && List.for_all
                      (fun a ->
                        entries.(a.Msts.Spider_trace.position).comms.(0)
                        = a.Msts.Spider_trace.emission)
                      trace.Msts.Spider_trace.accepted)
               (Msts.Intx.range 0 (opt + 2)))
           [ None; Some n ]))

let suites =
  [
    ( "spider.trace",
      [
        case "figure-7 pipeline" fig7_trace;
        trace_result_matches_algorithm;
        case "narrative rendering" trace_renders;
        case "negative inputs rejected" trace_rejects_negative;
        case "explain builds and allocates once" explain_cost;
        trace_matches_list_pipeline;
      ] );
  ]
