(* Tests for the per-resource measures (Msts.Metrics): waiting, buffering
   and utilisation, the flat pass's buffer high-water mark against the
   event-sort oracle it replaced, and the words the audit and the
   measures allocate per task. *)

open Helpers

let fig2 () = Msts.Chain_algorithm.schedule figure2_chain 5

let measure s = Msts.Metrics.of_plan (Msts.Plan.Chain s)

(* A task's arrival (the end of its last transfer, C_P + c_P), its wait
   for the processor and its completion. *)
let timing s task =
  let chain = Msts.Schedule.chain s in
  let e = Schedule_reference.chain_row s task in
  let p = e.proc in
  let arrival = e.comms.(p - 1) + Msts.Chain.latency chain p in
  (arrival, e.start - arrival, e.start + Msts.Chain.work chain p)

let waits s =
  List.init (Msts.Schedule.task_count s) (fun i ->
      let _, waiting, _ = timing s (i + 1) in
      waiting)

let timings_fig2 () =
  let s = fig2 () in
  Alcotest.(check int) "five tasks" 5 (Msts.Schedule.task_count s);
  (* task 2 (the dashed curve): arrives at 4, starts at 5 *)
  let arrival, waiting, completion = timing s 2 in
  Alcotest.(check int) "arrival" 4 arrival;
  Alcotest.(check int) "waiting" 1 waiting;
  Alcotest.(check int) "completion" 8 completion;
  (* task 1 computes immediately on arrival *)
  let _, waiting, _ = timing s 1 in
  Alcotest.(check int) "no wait" 0 waiting

let waiting_totals () =
  let m = measure (fig2 ()) in
  Alcotest.(check int) "total" 1 (Msts.Metrics.total_waiting m);
  Alcotest.(check int) "max" 1 (Msts.Metrics.max_waiting m)

let waiting_nonnegative_when_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"waiting times are never negative"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         let waits = waits s and m = measure s in
         List.for_all (fun w -> w >= 0) waits
         && Msts.Metrics.total_waiting m = List.fold_left ( + ) 0 waits
         && Msts.Metrics.max_waiting m = List.fold_left max 0 waits))

let buffer_high_water_fig2 () =
  let m = measure (fig2 ()) in
  (* only task 2 waits, for a single time unit *)
  Alcotest.(check int) "P1 buffers at most one" 1 m.nodes.(0).max_buffered;
  Alcotest.(check int) "P2 no buffering" 0 m.nodes.(1).max_buffered

let buffer_bounded_by_load =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"buffered tasks never exceed the tasks placed"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         Array.for_all
           (fun (v : Msts.Metrics.node) ->
             v.max_buffered <= List.length (Msts.Schedule.tasks_on s v.address.depth))
           (measure s).nodes))

let utilisation_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"utilisations are within [0,1]"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         QCheck.assume (n > 0);
         let m = measure (Msts.Chain_algorithm.schedule chain n) in
         Array.for_all
           (fun (v : Msts.Metrics.node) ->
             let lu = Msts.Metrics.fraction m v.link_busy in
             let pu = Msts.Metrics.fraction m v.compute in
             lu >= 0.0 && lu <= 1.0 +. 1e-9 && pu >= 0.0 && pu <= 1.0 +. 1e-9)
           m.nodes))

let first_link_saturated_for_large_n () =
  (* comm-bound chain: the master's port should be the bottleneck *)
  let chain = Msts.Chain.of_pairs [ (4, 2); (4, 2) ] in
  let m = measure (Msts.Chain_algorithm.schedule chain 100) in
  Alcotest.(check bool) "link 1 above 95% busy" true
    (Msts.Metrics.fraction m m.nodes.(0).link_busy > 0.95)

let summary_mentions_everything () =
  let text = Msts.Metrics.summary (Msts.Plan.Chain (fig2 ())) in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle text))
    [ "makespan: 14"; "total waiting: 1"; "P1"; "P2"; "max buffered" ]

let spider_master_utilisation () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ] in
  let m =
    Msts.Metrics.of_plan (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider 10))
  in
  let u = Msts.Metrics.fraction m m.port_busy in
  Alcotest.(check bool) "within bounds" true (u > 0.0 && u <= 1.0 +. 1e-9)

(* ---------- buffer high-water against the event-sort oracle ---------- *)

(* The high-water mark as the list-based measures computed it, kept as
   the flat pass's oracle: +1 when a task lands in the buffer, -1 when it
   starts executing; on a tie the departure is processed first.
   [timings] are the (arrival, start) pairs of one processor's tasks. *)
let reference_high_water timings =
  let events =
    List.sort compare
      (List.concat_map
         (fun (arrival, start) -> [ (arrival, 1, 1); (start, 0, -1) ])
         timings)
  in
  let high = ref 0 and current = ref 0 in
  List.iter
    (fun (_, _, delta) ->
      current := !current + delta;
      if !current > !high then high := !current)
    events;
  !high

(* Structurally valid, not necessarily feasible, schedules whose dates
   fall in 0..6 and whose latencies and works are 1..2: arrivals and starts
   collide often, on one processor and across tasks. *)
let tied_gen ~max_legs =
  let open Gen in
  let* legs = list_size (int_range 1 max_legs) (list_size (int_range 1 3) (pair (int_range 1 2) (int_range 1 2))) in
  let spider = Msts.Spider.of_legs (List.map Msts.Chain.of_pairs legs) in
  let entry =
    let* leg = int_range 1 (List.length legs) in
    let* depth = int_range 1 (List.length (List.nth legs (leg - 1))) in
    let* start = int_range 0 6 in
    let+ comms = array_size (return depth) (int_range 0 6) in
    { Schedule_reference.Spider_schedule.address = { Msts.Spider.leg; depth }; start; comms }
  in
  let+ entries = array_size (int_range 0 12) entry in
  Schedule_reference.spider_plan spider entries

let tied_arb ~max_legs =
  QCheck.make ~print:Msts.Spider_schedule.to_string (tied_gen ~max_legs)

let agrees_with_reference plan =
  let s = Msts.Plan.to_spider plan in
  let spider = Msts.Spider_schedule.spider s in
  Array.for_all
    (fun (v : Msts.Metrics.node) ->
      let timings =
        List.filter_map
          (fun (e : Schedule_reference.Spider_schedule.entry) ->
            if e.address <> v.address then None
            else
              let chain = Msts.Spider.leg_chain spider v.address.leg in
              let depth = v.address.depth in
              Some (e.comms.(depth - 1) + Msts.Chain.latency chain depth, e.start))
          (Array.to_list (Schedule_reference.spider_rows s))
      in
      let expected = reference_high_water timings in
      if v.max_buffered <> expected then
        QCheck.Test.fail_reportf "leg %d depth %d: flat pass %d, oracle %d" v.address.leg
          v.address.depth v.max_buffered expected;
      true)
    (Msts.Metrics.of_plan plan).nodes

let high_water_on_chains =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"chain buffer high-water matches the event sort"
       (tied_arb ~max_legs:1)
       (fun s ->
         agrees_with_reference
           (Msts.Plan.Chain (Msts.Spider_schedule.leg_schedule s 1))))

let high_water_on_spiders =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"spider buffer high-water matches the event sort"
       (tied_arb ~max_legs:3)
       (fun s -> agrees_with_reference (Msts.Plan.Spider s)))

let high_water_tie () =
  (* task 1 arrives at 2 and starts at 5; task 2 arrives at 5, the date
     task 1 leaves the buffer: never two buffered at once *)
  let chain = Msts.Chain.of_pairs [ (2, 3) ] in
  let s =
    Schedule_reference.chain_plan chain
      [|
        { Schedule_reference.Schedule.proc = 1; start = 5; comms = [| 0 |] };
        { Schedule_reference.Schedule.proc = 1; start = 8; comms = [| 3 |] };
      |]
  in
  Alcotest.(check int) "oracle" 1 (reference_high_water [ (2, 5); (5, 8) ]);
  Alcotest.(check int) "flat pass" 1 (measure s).nodes.(0).max_buffered

(* ---------- words allocated per task ---------- *)

(* Minor words [f] allocates.  (An array too large for the minor heap
   goes straight to the major one, which OCaml 5 tallies only lazily; the
   passes measured here allocate a few such int arrays of n words.) *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let per_task n f =
  let plan = Msts.Plan.Chain (Msts.Chain_algorithm.schedule figure2_chain n) in
  words (fun () -> f plan) /. float_of_int n

(* The audit and the measures cost a constant number of minor words per
   task: on the Figure 2 chain the per-task figure at n = 20 000 is no
   larger than at n = 200 (fixed costs only amortise), and it stays
   small. *)
let words_per_task () =
  List.iter
    (fun (what, f, bound) ->
      let small = per_task 200 f and large = per_task 20_000 f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words/task at n=20000 <= %.1f at n=200" what large
           small)
        true (large <= small);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words/task at n=200 <= %.0f" what small bound)
        true (small <= bound))
    [
      ("Plan.check", (fun plan -> ignore (Msts.Plan.check ~require_nonnegative:true plan)), 16.0);
      ("Metrics.of_plan", (fun plan -> ignore (Msts.Metrics.of_plan plan)), 16.0);
    ]

let suites =
  [
    ( "schedule.metrics",
      [
        case "figure-2 task timings" timings_fig2;
        case "figure-2 waiting totals" waiting_totals;
        waiting_nonnegative_when_feasible;
        case "figure-2 buffer high-water" buffer_high_water_fig2;
        buffer_bounded_by_load;
        utilisation_bounds;
        case "saturated first link" first_link_saturated_for_large_n;
        case "summary rendering" summary_mentions_everything;
        case "spider master utilisation" spider_master_utilisation;
        case "arrival at another task's start" high_water_tie;
        high_water_on_chains;
        high_water_on_spiders;
        case "words per task" words_per_task;
      ] );
  ]
