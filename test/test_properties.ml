(* Cross-cutting algebraic properties of the optimal makespan — invariances
   and monotonicities that must hold for any correct implementation of the
   model, checked against the production algorithm. *)

open Helpers

let scale_chain lambda chain =
  Msts.Chain.of_pairs
    (List.map (fun (c, w) -> (lambda * c, lambda * w)) (Msts.Chain.to_pairs chain))

(* time-unit invariance: multiplying every latency and work time by λ
   multiplies the optimal makespan by exactly λ *)
let makespan_scales_linearly =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"makespan scales linearly with the time unit"
       (QCheck.make
          ~print:(fun ((chain, n), lambda) ->
            Printf.sprintf "%s, n=%d, lambda=%d" (Msts.Chain.to_string chain) n lambda)
          QCheck.Gen.(
            pair (pair (chain_gen ~max_p:4 ()) (int_range 0 12)) (int_range 1 5)))
       (fun ((chain, n), lambda) ->
         Msts.Chain_algorithm.makespan (scale_chain lambda chain) n
         = lambda * Msts.Chain_algorithm.makespan chain n))

(* appending a processor at the far end never hurts *)
let extra_processor_never_hurts =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"appending a processor never increases the makespan"
       (QCheck.make
          ~print:(fun ((chain, n), (c, w)) ->
            Printf.sprintf "%s + (c=%d,w=%d), n=%d" (Msts.Chain.to_string chain) c w n)
          QCheck.Gen.(
            pair
              (pair (chain_gen ~max_p:4 ()) (int_range 0 12))
              (pair (int_range 1 10) (int_range 1 10))))
       (fun ((chain, n), (c, w)) ->
         let extended = Msts.Chain.of_pairs (Msts.Chain.to_pairs chain @ [ (c, w) ]) in
         Msts.Chain_algorithm.makespan extended n
         <= Msts.Chain_algorithm.makespan chain n))

(* speeding up any single resource never hurts: decrement one latency or
   one work time (keeping it positive) *)
let speedup_never_hurts =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"speeding up one resource never increases the makespan"
       (QCheck.make
          ~print:(fun ((chain, n), (idx, which)) ->
            Printf.sprintf "%s, n=%d, target=%d/%s" (Msts.Chain.to_string chain) n idx
              (if which then "latency" else "work"))
          QCheck.Gen.(
            pair
              (pair (chain_gen ~max_p:4 ~max_val:10 ()) (int_range 0 12))
              (pair (int_range 0 3) bool)))
       (fun ((chain, n), (idx, which)) ->
         let pairs = Msts.Chain.to_pairs chain in
         let k = idx mod List.length pairs in
         let faster =
           List.mapi
             (fun i (c, w) ->
               if i = k then if which then (max 1 (c - 1), w) else (c, max 1 (w - 1))
               else (c, w))
             pairs
         in
         Msts.Chain_algorithm.makespan (Msts.Chain.of_pairs faster) n
         <= Msts.Chain_algorithm.makespan chain n))

(* prefix monotonicity: truncating a chain cannot help *)
let truncation_never_helps =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"keeping only a prefix of the chain never helps"
       (QCheck.make
          ~print:(fun ((chain, n), k) ->
            Printf.sprintf "%s, n=%d, prefix=%d" (Msts.Chain.to_string chain) n k)
          QCheck.Gen.(
            pair (pair (chain_gen ~min_p:2 ~max_p:5 ()) (int_range 0 12)) (int_range 1 4)))
       (fun ((chain, n), k) ->
         let k = 1 + (k mod Msts.Chain.length chain) in
         Msts.Chain_algorithm.makespan chain n
         <= Msts.Chain_algorithm.makespan (Msts.Chain.prefix chain k) n))

(* spider versions of the key invariances *)
let scale_spider lambda spider =
  Msts.Spider.of_legs
    (List.init (Msts.Spider.legs spider) (fun idx ->
         scale_chain lambda (Msts.Spider.leg_chain spider (idx + 1))))

let spider_makespan_scales =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"spider makespan scales linearly with the time unit"
       (QCheck.make
          ~print:(fun ((spider, n), lambda) ->
            Printf.sprintf "%s, n=%d, lambda=%d" (Msts.Spider.to_string spider) n lambda)
          QCheck.Gen.(
            pair
              (pair (spider_gen ~max_legs:3 ~max_depth:2 ()) (int_range 0 8))
              (int_range 1 4)))
       (fun ((spider, n), lambda) ->
         Msts.Spider_algorithm.min_makespan (scale_spider lambda spider) n
         = lambda * Msts.Spider_algorithm.min_makespan spider n))

(* the deadline staircase and the makespan function are inverse monotone
   Galois-connected maps: tasks(makespan(n)) >= n and
   makespan(tasks(d)) <= d *)
let galois_connection =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"deadline and makespan form a Galois connection"
       (QCheck.make
          ~print:(fun ((chain, n), d) ->
            Printf.sprintf "%s, n=%d, d=%d" (Msts.Chain.to_string chain) n d)
          QCheck.Gen.(
            pair (pair (chain_gen ~max_p:4 ()) (int_range 1 10)) (int_range 0 60)))
       (fun ((chain, n), d) ->
         Msts.Chain_deadline.max_tasks chain
           ~deadline:(Msts.Chain_algorithm.makespan chain n)
         >= n
         && Msts.Chain_algorithm.makespan chain
              (Msts.Chain_deadline.max_tasks chain ~deadline:d)
            <= d))

(* duplicating a leg of a spider never hurts (more resources) *)
let duplicated_leg_never_hurts =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"duplicating a spider leg never increases the makespan"
       (spider_with_n_arb ~max_legs:2 ~max_depth:2 ~max_n:8 ())
       (fun (spider, n) ->
         let legs =
           List.init (Msts.Spider.legs spider) (fun idx ->
               Msts.Spider.leg_chain spider (idx + 1))
         in
         let doubled = Msts.Spider.of_legs (legs @ [ List.hd legs ]) in
         Msts.Spider_algorithm.min_makespan doubled n
         <= Msts.Spider_algorithm.min_makespan spider n))

(* within each processor, the optimal schedule executes tasks in emission
   order — no overtaking (the FIFO structure the proofs rely on) *)
let no_overtaking_within_processor =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"tasks execute in emission order on each processor"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         let sched = Msts.Chain_algorithm.schedule chain n in
         List.for_all
           (fun k ->
             let tasks = Msts.Schedule.tasks_on sched k in
             (* tasks_on is in start order; index order = emission order *)
             tasks = List.sort compare tasks)
           (Msts.Intx.range 1 (Msts.Chain.length chain))))

(* likewise across links: transfers on every link happen in task order *)
let no_overtaking_on_links =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"transfers cross each link in task order"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         let sched = Msts.Chain_algorithm.schedule chain n in
         List.for_all
           (fun k ->
             let sorted_by_time =
               List.sort
                 (fun a b ->
                   Int.compare a.Msts.Intervals.start b.Msts.Intervals.start)
                 (Feasibility_oracle.link_intervals sched k)
             in
             let tags = List.map (fun iv -> iv.Msts.Intervals.tag) sorted_by_time in
             tags = List.sort compare tags)
           (Msts.Intx.range 1 (Msts.Chain.length chain))))

let suites =
  [
    ( "properties.algebraic",
      [
        makespan_scales_linearly;
        extra_processor_never_hurts;
        speedup_never_hurts;
        truncation_never_helps;
        spider_makespan_scales;
        galois_connection;
        duplicated_leg_never_hurts;
      ] );
    ( "properties.fifo",
      [ no_overtaking_within_processor; no_overtaking_on_links ] );
  ]
