(* Differential and search tests for the fast chain kernel (the O(n·p)
   fused sweep every construction runs) against the paper-literal
   O(n·p²) candidate scan: the library's own for chain schedules, the
   frozen copies in Kernel_reference for everything else.  The two
   must produce byte-identical plans on every instance; the warm-started
   binary searches must return the same answers as full-range searches
   with strictly fewer probes. *)

open Helpers
module Obs = Msts.Obs

let chain_plan chain n = Msts.Plan.Chain (Msts.Chain_algorithm.schedule chain n)

(* The library's own candidate scan, the construction the paper prints. *)
let reference_chain_plan chain n =
  Msts.Plan.Chain
    (Msts.Chain_algorithm.schedule_with_selector
       ~select:Msts.Chain_algorithm.select chain n)

(* ---------- differential: fast vs reference ---------- *)

let schedules_identical =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"schedule: fast = reference (chains)"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         Msts.Plan.equal (chain_plan chain n) (reference_chain_plan chain n)))

let makespans_identical =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"makespan: fast = reference = schedule"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         let fast = Msts.Chain_algorithm.makespan chain n in
         fast = Kernel_reference.makespan chain n
         && fast = Msts.Schedule.makespan (Msts.Chain_algorithm.schedule chain n)))

let deadline_schedules_identical =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"deadline schedule: fast = reference at several deadlines"
       (chain_with_n_arb ~max_p:5 ~max_n:8 ())
       (fun (chain, n) ->
         let opt = Msts.Chain_algorithm.makespan chain n in
         List.for_all
           (fun deadline ->
             Msts.Plan.equal
               (Msts.Plan.Chain (Msts.Chain_deadline.schedule chain ~deadline))
               (Msts.Plan.Chain (Kernel_reference.deadline_schedule chain ~deadline)))
           [ opt; opt / 2; (2 * opt) + 3 ]))

let incremental_identical =
  to_alcotest
    (QCheck.Test.make ~count:200 ~name:"incremental fill: fast = reference"
       (chain_with_n_arb ~max_p:5 ~max_n:8 ())
       (fun (chain, n) ->
         let horizon = Msts.Chain_algorithm.horizon chain n in
         let t = Msts.Chain_incremental.create chain ~horizon in
         let pf = Msts.Chain_incremental.fill t () in
         let r = Kernel_reference.create chain ~horizon in
         let pr = Kernel_reference.fill r () in
         pf = pr
         && Msts.Chain_incremental.earliest_emission t
            = Kernel_reference.earliest_emission r
         && Msts.Plan.equal
              (Msts.Plan.Chain (Msts.Chain_incremental.schedule t))
              (Msts.Plan.Chain (Kernel_reference.schedule r))))

let spider_plans_identical =
  to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider: fast = reference plans"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         Msts.Plan.equal
           (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n))
           (Msts.Plan.Spider (Kernel_reference.spider_schedule_tasks spider n))))

let spider_makespans_identical =
  to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider: fast = reference min_makespan"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         Msts.Spider_algorithm.min_makespan spider n
         = Kernel_reference.spider_min_makespan spider n))

(* Times are typed positive in the paper (T : [1;n] -> N+), and Chain.make
   enforces it — c = 0 links or w = 0 slaves are outside the model.  The
   degenerate corner is therefore the minimal legal platform. *)
let degenerate_rejected () =
  Alcotest.check_raises "c = 0 is outside the model"
    (Invalid_argument "Msts.Chain.make: non-positive latency") (fun () ->
      ignore (Msts.Chain.of_pairs [ (0, 1) ]));
  Alcotest.check_raises "w = 0 is outside the model"
    (Invalid_argument "Msts.Chain.make: non-positive work time") (fun () ->
      ignore (Msts.Chain.of_pairs [ (1, 0) ]))

let minimal_platform () =
  let unit_chain = Msts.Chain.of_pairs [ (1, 1) ] in
  List.iter
    (fun (chain, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%d n=%d identical" (Msts.Chain.length chain) n)
        true
        (Msts.Plan.equal (chain_plan chain n) (reference_chain_plan chain n));
      Alcotest.(check int)
        (Printf.sprintf "p=%d n=%d makespan" (Msts.Chain.length chain) n)
        (Kernel_reference.makespan chain n)
        (Msts.Chain_algorithm.makespan chain n))
    [
      (unit_chain, 0);
      (unit_chain, 1);
      (unit_chain, 5);
      (figure2_chain, 0);
      (figure2_chain, 1);
      (Msts.Chain.of_pairs [ (7, 2) ], 4);
    ]

(* ---------- warm-started searches ---------- *)

let counter_total mem name =
  List.fold_left
    (fun acc -> function
      | [ n; total ] when n = name -> acc + int_of_string total
      | _ -> acc)
    0
    (Obs.Memory.counter_rows mem)

(* Probe count of the old cold search (lo = 0), measured independently so
   the test does not depend on implementation details of the search. *)
let naive_probes ~lo ~hi p =
  let probes = ref 0 in
  let result =
    Msts.Intx.binary_search_least ~lo ~hi (fun x ->
        incr probes;
        p x)
  in
  (result, !probes)

let chain_search_probes_drop () =
  let n = 40 in
  let hi = Msts.Chain.master_only_makespan figure2_chain n in
  let naive_result, naive =
    naive_probes ~lo:0 ~hi (fun d ->
        Msts.Chain_deadline.max_tasks figure2_chain ~deadline:d >= n)
  in
  let mem = Obs.Memory.create () in
  let warm_result =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Chain_deadline.min_makespan_via_deadline figure2_chain n)
  in
  let warm = counter_total mem "chain.deadline.search_probes" in
  Alcotest.(check (option int)) "same makespan" (Some warm_result) naive_result;
  Alcotest.(check int)
    "agrees with the direct algorithm"
    (Msts.Chain_algorithm.makespan figure2_chain n)
    warm_result;
  Alcotest.(check bool)
    (Printf.sprintf "fewer probes (%d warm < %d naive)" warm naive)
    true (warm < naive)

let spider_search_probes_drop () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ] in
  let n = 12 in
  let hi = Msts.Spider_algorithm.makespan_upper_bound spider n in
  let naive_result, naive =
    naive_probes ~lo:0 ~hi (fun d ->
        Msts.Spider_algorithm.max_tasks ~budget:n spider ~deadline:d >= n)
  in
  let mem = Obs.Memory.create () in
  let warm_result =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Spider_algorithm.min_makespan spider n)
  in
  let warm = counter_total mem "spider.search_probes" in
  Alcotest.(check (option int)) "same makespan" (Some warm_result) naive_result;
  Alcotest.(check bool)
    (Printf.sprintf "fewer probes (%d warm < %d naive)" warm naive)
    true (warm < naive);
  Alcotest.(check bool) "legs are replayed from the cache" true
    (counter_total mem "spider.leg_reuses" > 0)

(* ---------- the spider search probe: Moore–Hodgson over the ceiling ---------- *)

module Ceiling = Msts.Spider_algorithm.Ceiling

(* Spiders whose first links come from {1, 2}, so legs share [c₁] and
   the probe's comm groups hold several legs. *)
let tied_spider_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun legs ->
    list_size (return legs)
      ( int_range 1 2 >>= fun c1 ->
        int_range 1 6 >>= fun w1 ->
        list_size (int_range 0 2) (pair (int_range 1 6) (int_range 1 6))
        >|= fun tail -> Msts.Chain.of_pairs ((c1, w1) :: tail) )
    >|= Msts.Spider.of_legs)

let tied_spider_arb =
  QCheck.make
    ~print:(fun (spider, n, budget) ->
      Printf.sprintf "%s, n=%d, budget=%d" (Msts.Spider.to_string spider) n budget)
    QCheck.Gen.(
      triple tied_spider_gen (int_range 1 8)
        (oneofl [ 0; 1; 3; 6; max_int ]))

(* The frozen reference's deadline op: leg schedules rebuilt at the
   deadline, the virtual fork allocated by the insertion loop. *)
let greedy_count spider ~deadline ~budget =
  Msts.Spider_schedule.task_count (Kernel_reference.spider_plan ~budget spider ~deadline)

(* Every deadline in [0, H]: the probe counts what the reference allocator
   accepts on that deadline's own virtual fork, and the plan read off the
   ceiling is the one the reference builds from scratch at that deadline.
   Budgets run from 0 to unbounded, so both sides of capacity occur. *)
let probe_matches_greedy =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"probe count and ceiling plan = frozen reference on [0, H]"
       tied_spider_arb
       (fun (spider, n, budget) ->
         let horizon = Msts.Spider_algorithm.makespan_upper_bound spider n in
         let ceiling = Ceiling.build ~budget spider ~horizon in
         List.for_all
           (fun deadline ->
             let count = Ceiling.count ceiling ~deadline in
             let reference = Kernel_reference.spider_plan ~budget spider ~deadline in
             let expected = Msts.Spider_schedule.task_count reference in
             if count <> expected then
               QCheck.Test.fail_reportf "deadline %d: probe %d, greedy %d"
                 deadline count expected;
             Msts.Plan.equal
               (Msts.Plan.Spider (Ceiling.plan ceiling ~deadline))
               (Msts.Plan.Spider reference))
           (Msts.Intx.range 0 horizon)))

(* Both spider entry points against the frozen reference, on spiders whose
   legs share first links (so one comm class spans several legs): the
   search's plan at its optimum, and the deadline op at deadlines on both
   sides of it, under the task-count budget and none. *)
let spider_entry_points_match_reference =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"schedule_tasks and schedule ~deadline ~budget = frozen reference"
       tied_spider_arb
       (fun (spider, n, budget) ->
         let same a b = Msts.Plan.equal (Msts.Plan.Spider a) (Msts.Plan.Spider b) in
         let opt = Kernel_reference.spider_min_makespan spider n in
         same
           (Msts.Spider_algorithm.schedule_tasks spider n)
           (Kernel_reference.spider_schedule_tasks spider n)
         && List.for_all
              (fun deadline ->
                same
                  (Msts.Spider_algorithm.schedule ~budget spider ~deadline)
                  (Kernel_reference.spider_plan ~budget spider ~deadline)
                && same
                     (Msts.Spider_algorithm.schedule spider ~deadline)
                     (Kernel_reference.spider_plan spider ~deadline))
              [ 0; opt / 2; opt - 1; opt; opt + 3; 2 * opt ]))

(* Node-level: arbitrary virtual nodes, including c = 0 and W = 0 ones
   (the chain model rejects c = 0 / w = 0 links, but the count itself
   must not depend on positivity). *)
let vnode_gen =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (map2
         (fun comm work -> { Msts.Fork_expansion.slave = 1; rank = 0; comm; work })
         (int_range 0 4) (int_range 0 12)))

(* [make] takes the nodes in due-date order (work non-increasing). *)
let count_of_nodes nodes =
  let nodes =
    List.stable_sort
      (fun (a : Msts.Fork_expansion.vnode) b -> Int.compare b.work a.work)
      nodes
  in
  let field f = Array.of_list (List.map f nodes) in
  Msts.Fork_count.make
    ~comm:(field (fun (v : Msts.Fork_expansion.vnode) -> v.comm))
    ~work:(field (fun (v : Msts.Fork_expansion.vnode) -> v.work))

let count_matches_greedy_on_nodes =
  to_alcotest
    (QCheck.Test.make ~count:400 ~name:"Moore-Hodgson count = greedy on raw nodes"
       (QCheck.make
          ~print:(fun (nodes, budget) ->
            Printf.sprintf "budget %d: %s" budget
              (String.concat "; "
                 (List.map vnode_to_string nodes)))
          QCheck.Gen.(pair vnode_gen (oneofl [ 0; 2; 5; max_int ])))
       (fun (nodes, budget) ->
         let t = count_of_nodes nodes in
         List.for_all
           (fun deadline ->
             Msts.Fork_count.count t ~deadline ~budget
             = List.length (allocate nodes ~deadline ~budget))
           (Msts.Intx.range 0 20)))

let degenerate_nodes () =
  let node comm work = { Msts.Fork_expansion.slave = 1; rank = 0; comm; work } in
  let nodes = [ node 0 0; node 0 0; node 0 3; node 2 0; node 2 0 ] in
  let t = count_of_nodes nodes in
  List.iter
    (fun deadline ->
      Alcotest.(check int)
        (Printf.sprintf "deadline %d" deadline)
        (List.length (allocate nodes ~deadline ~budget:max_int))
        (Msts.Fork_count.count t ~deadline ~budget:max_int))
    [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "zero-cost nodes all fit at 0" 2
    (Msts.Fork_count.count t ~deadline:0 ~budget:max_int);
  Alcotest.check_raises "negative comm"
    (Invalid_argument "Moore_hodgson.make: negative comm or work") (fun () ->
      ignore (count_of_nodes [ node (-1) 0 ]));
  Alcotest.check_raises "out of due-date order"
    (Invalid_argument "Moore_hodgson.make: work rises (nodes not in due-date order)")
    (fun () -> ignore (Msts.Fork_count.make ~comm:[| 1; 1 |] ~work:[| 2; 3 |]));
  (* the minimal legal leg, (c, w) = (1, 1), on every side of capacity *)
  let spider = Msts.Spider.of_legs [ Msts.Chain.of_pairs [ (1, 1) ]; Msts.Chain.of_pairs [ (1, 1) ] ] in
  let ceiling = Ceiling.build ~budget:4 spider ~horizon:6 in
  List.iter
    (fun deadline ->
      Alcotest.(check int)
        (Printf.sprintf "unit legs, deadline %d" deadline)
        (greedy_count spider ~deadline ~budget:4)
        (Ceiling.count ceiling ~deadline))
    (Msts.Intx.range 0 6);
  Alcotest.check_raises "past the ceiling"
    (Invalid_argument "Spider algorithm: deadline 7 outside the ceiling 0..6")
    (fun () -> ignore (Ceiling.count ceiling ~deadline:7))

(* Fig. 2 spider, n = 12: the warm start is 16, OPT 18 and the master-only
   ceiling 25.  The first ceiling (17) misses, the second (20) fits, and
   the search answers from it exactly as the reference does. *)
let ceiling_grows () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ] in
  let n = 12 in
  let mem = Obs.Memory.create () in
  let fast =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Spider_algorithm.min_makespan spider n)
  in
  let builds =
    match List.assoc_opt "spider.leg_schedules" (Obs.Memory.spans mem) with
    | Some stat -> stat.Obs.Memory.calls
    | None -> 0
  in
  Alcotest.(check int) "two ceilings built" 2 builds;
  Alcotest.(check int) "reference answer"
    (Kernel_reference.spider_min_makespan spider n)
    fast;
  Alcotest.(check int) "OPT" 18 fast

(* Gc.minor_words boxes its float result, so two back-to-back reads
   calibrate the cost of the measurement itself. *)
let calibrate () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

(* The cold-solve shape: after the build, probing every deadline of the
   search range allocates nothing. *)
let probe_allocation_free () =
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs:4 ~max_depth:3
  in
  let n = 192 in
  let horizon = Msts.Spider_algorithm.makespan_upper_bound spider n in
  let ceiling = Ceiling.build ~budget:n spider ~horizon in
  let lo = Msts.Bounds.spider_combined_bound spider n in
  ignore (Ceiling.count ceiling ~deadline:horizon) (* warm-up *);
  let probes = horizon - lo + 1 in
  let fitting = ref 0 in
  let baseline = calibrate () in
  let before = Gc.minor_words () in
  for deadline = lo to horizon do
    if Ceiling.count ceiling ~deadline >= n then incr fitting
  done;
  let after = Gc.minor_words () in
  let extra = after -. before -. baseline in
  Alcotest.(check bool)
    (Printf.sprintf "%d probes allocated %.0f minor words" probes extra)
    true (extra <= 0.5);
  Alcotest.(check bool) "the ceiling fits n" true (!fitting > 0)

let suites =
  [
    ( "kernel.differential",
      [
        schedules_identical;
        makespans_identical;
        deadline_schedules_identical;
        incremental_identical;
        spider_plans_identical;
        spider_makespans_identical;
        case "degenerate c=0/w=0 are outside the model" degenerate_rejected;
        case "minimal legal platforms" minimal_platform;
      ] );
    ( "kernel.search",
      [
        case "chain deadline search probes drop (Fig. 2)" chain_search_probes_drop;
        case "spider search probes drop (Fig. 2 spider)" spider_search_probes_drop;
      ] );
    ( "kernel.spider_probe",
      [
        probe_matches_greedy;
        spider_entry_points_match_reference;
        count_matches_greedy_on_nodes;
        case "degenerate nodes and unit legs" degenerate_nodes;
        case "the ceiling grows past a miss (Fig. 2 spider)" ceiling_grows;
        case "probes allocate nothing after the build" probe_allocation_free;
      ] );
  ]
