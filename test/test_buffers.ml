(* Tests for finite-buffer plan execution. *)

open Helpers

let bounded_feasible_and_complete =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"bounded execution stays feasible and serves every task"
       (QCheck.make
          ~print:(fun ((chain, n), b) ->
            Printf.sprintf "%s, n=%d, b=%d" (Msts.Chain.to_string chain) n b)
          QCheck.Gen.(
            pair (pair (chain_gen ~max_p:4 ()) (int_range 0 12)) (int_range 1 3)))
       (fun ((chain, n), buffer) ->
         let plan =
           Msts.Spider_schedule.of_chain_schedule (Msts.Chain_algorithm.schedule chain n)
         in
         let report = Msts.Netsim.replay_routing ~buffer plan in
         Msts.Spider_schedule.task_count report.Msts.Netsim.realized = n
         && check_spider_feasible report.Msts.Netsim.realized))

let large_buffer_matches_unbounded =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"a buffer as large as n reproduces the unbounded makespan"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         QCheck.assume (n > 0);
         let plan =
           Msts.Spider_schedule.of_chain_schedule (Msts.Chain_algorithm.schedule chain n)
         in
         let bounded = Msts.Netsim.replay_routing ~buffer:n plan in
         (* with n slots nothing can stall, so the eager replay meets the
            plan (it may even beat it by compressing idle port time) *)
         bounded.Msts.Netsim.realized_makespan
         <= Msts.Spider_schedule.makespan plan))

(* Strict per-instance monotonicity in the buffer size is NOT a theorem —
   credit-induced reordering can produce Graham-style anomalies — so two
   sound checks replace it: every bounded execution is a feasible schedule
   and therefore at least the true optimum; and ON AVERAGE more buffer
   space helps (checked over a fixed instance set). *)
let bounded_at_least_optimal =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"bounded execution never beats the true optimum"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:8 ())
       (fun (spider, n) ->
         QCheck.assume (n > 0);
         let plan = Msts.Spider_algorithm.schedule_tasks spider n in
         let optimum = Msts.Spider_schedule.makespan plan in
         List.for_all
           (fun b ->
             (Msts.Netsim.replay_routing ~buffer:b plan).Msts.Netsim
               .realized_makespan
             >= optimum)
           [ 1; 2; 4 ]))

let buffers_help_on_average () =
  let rng = Msts.Prng.create 8642 in
  let trials = 40 in
  let total = Array.make 3 0 in
  for _ = 1 to trials do
    let spider =
      Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3 ~max_depth:3
    in
    let plan = Msts.Spider_algorithm.schedule_tasks spider 20 in
    List.iteri
      (fun idx b ->
        total.(idx) <-
          total.(idx)
          + (Msts.Netsim.replay_routing ~buffer:b plan).Msts.Netsim
              .realized_makespan)
      [ 1; 2; 4 ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "totals %d >= %d >= %d" total.(0) total.(1) total.(2))
    true
    (total.(0) >= total.(1) && total.(1) >= total.(2))

let bounded_at_least_lower_bound =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"bounded execution respects the port lower bound"
       (chain_with_n_arb ~max_p:3 ~max_n:8 ())
       (fun (chain, n) ->
         QCheck.assume (n > 0);
         let plan =
           Msts.Spider_schedule.of_chain_schedule (Msts.Chain_algorithm.schedule chain n)
         in
         let report = Msts.Netsim.replay_routing ~buffer:1 plan in
         report.Msts.Netsim.realized_makespan >= Msts.Bounds.spider_port_bound (Msts.Spider.of_chain chain) n))

let stall_example () =
  (* a deep slow chain where single-buffering visibly stalls the pipeline:
     all tasks go to the far processor through a slow relay *)
  let chain = Msts.Chain.of_pairs [ (1, 50); (1, 2) ] in
  let n = 6 in
  let plan =
    Msts.Spider_schedule.of_chain_schedule (Msts.Chain_algorithm.schedule chain n)
  in
  let b1 = (Msts.Netsim.replay_routing ~buffer:1 plan).Msts.Netsim.realized_makespan in
  let b4 = (Msts.Netsim.replay_routing ~buffer:4 plan).Msts.Netsim.realized_makespan in
  Alcotest.(check bool)
    (Printf.sprintf "b=4 (%d) is no slower than b=1 (%d)" b4 b1)
    true (b4 <= b1)

let rejects_bad_buffer () =
  let plan =
    Msts.Spider_schedule.of_chain_schedule
      (Msts.Chain_algorithm.schedule figure2_chain 2)
  in
  Alcotest.check_raises "buffer 0"
    (Invalid_argument "Msts.Netsim.replay_routing: buffer must be >= 1") (fun () ->
      ignore (Msts.Netsim.replay_routing ~buffer:0 plan))

let suites =
  [
    ( "sim.buffers",
      [
        bounded_feasible_and_complete;
        large_buffer_matches_unbounded;
        bounded_at_least_optimal;
        case "buffers help on average" buffers_help_on_average;
        bounded_at_least_lower_bound;
        case "stalling pipeline example" stall_example;
        case "bad buffer rejected" rejects_bad_buffer;
      ] );
  ]
