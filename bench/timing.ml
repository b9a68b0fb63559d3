(* Bechamel timing benches: the complexity claims.

   E10: the chain algorithm is O(n·p²) — run time should scale linearly in
   n at fixed p and quadratically in p at fixed n.
   E8: the spider algorithm is polynomial (Theorem 2 bounds it by
   O(n²·p²); the binary search adds a log factor on top of the single
   deadline pass measured here).

   Each bench prints the OLS estimate of ns/run plus the measured scaling
   ratios next to the ideal ones. *)

open Bechamel
open Toolkit

let run_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

let estimate results name =
  match Analyze.OLS.estimates (Hashtbl.find results name) with
  | Some (est :: _) -> est
  | _ -> nan

let r2 results name =
  match Analyze.OLS.r_square (Hashtbl.find results name) with
  | Some r -> r
  | None -> nan

(* deterministic platform for a given size *)
let bench_chain ~p =
  Msts.Generator.chain (Msts.Prng.create (p * 7919)) Msts.Generator.default_profile ~p

let scaling_in_n () =
  let p = 8 in
  let chain = bench_chain ~p in
  let sizes = [ 125; 250; 500; 1000; 2000 ] in
  let tests =
    Test.make_grouped ~name:"chain-n"
      (List.map
         (fun n ->
           Test.make
             ~name:(Printf.sprintf "n=%d" n)
             (Staged.stage (fun () ->
                  ignore (Msts.Chain_algorithm.makespan chain n))))
         sizes)
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "E10a: chain algorithm runtime vs n (p=%d fixed; O(n p^2) predicts \
            ratio 2.00 per row)"
           p)
      ~columns:[ "n"; "ns/run"; "r^2"; "ratio vs previous" ]
  in
  let previous = ref nan in
  List.iter
    (fun n ->
      let key = Printf.sprintf "chain-n/n=%d" n in
      let est = estimate results key in
      Msts.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.0f" est;
          Printf.sprintf "%.4f" (r2 results key);
          (if Float.is_nan !previous then "-"
           else Printf.sprintf "%.2f" (est /. !previous));
        ];
      previous := est)
    sizes;
  Msts.Table.print table

let scaling_in_p () =
  let n = 400 in
  let sizes = [ 4; 8; 16; 32 ] in
  let tests =
    Test.make_grouped ~name:"chain-p"
      (List.map
         (fun p ->
           let chain = bench_chain ~p in
           Test.make
             ~name:(Printf.sprintf "p=%d" p)
             (Staged.stage (fun () ->
                  ignore (Msts.Chain_algorithm.makespan chain n))))
         sizes)
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "E10b: chain algorithm runtime vs p (n=%d fixed; O(n p^2) predicts \
            ratio 4.00 per row)"
           n)
      ~columns:[ "p"; "ns/run"; "r^2"; "ratio vs previous" ]
  in
  let previous = ref nan in
  List.iter
    (fun p ->
      let key = Printf.sprintf "chain-p/p=%d" p in
      let est = estimate results key in
      Msts.Table.add_row table
        [
          string_of_int p;
          Printf.sprintf "%.0f" est;
          Printf.sprintf "%.4f" (r2 results key);
          (if Float.is_nan !previous then "-"
           else Printf.sprintf "%.2f" (est /. !previous));
        ];
      previous := est)
    sizes;
  Msts.Table.print table

let spider_scaling () =
  let sizes = [ (2, 50); (4, 50); (2, 100); (4, 100); (4, 200) ] in
  let tests =
    Test.make_grouped ~name:"spider"
      (List.map
         (fun (legs, n) ->
           let spider =
             Msts.Generator.spider
               (Msts.Prng.create ((legs * 1000) + n))
               Msts.Generator.default_profile ~legs ~max_depth:4
           in
           let deadline = Msts.Spider_algorithm.makespan_upper_bound spider n in
           Test.make
             ~name:(Printf.sprintf "legs=%d,n=%d" legs n)
             (Staged.stage (fun () ->
                  ignore
                    (Msts.Spider_algorithm.max_tasks ~budget:n spider ~deadline))))
         sizes)
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create
      ~title:
        "E8 (Theorem 2): one spider deadline pass (legs x depth<=4); \
         polynomial growth"
      ~columns:[ "legs"; "n"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun (legs, n) ->
      let key = Printf.sprintf "spider/legs=%d,n=%d" legs n in
      Msts.Table.add_row table
        [
          string_of_int legs;
          string_of_int n;
          Printf.sprintf "%.0f" (estimate results key);
          Printf.sprintf "%.4f" (r2 results key);
        ])
    sizes;
  Msts.Table.print table

let component_costs () =
  let chain = bench_chain ~p:8 in
  let n = 500 in
  let sched = Msts.Chain_algorithm.schedule chain n in
  let spider_plan = Msts.Spider_schedule.of_chain_schedule sched in
  let seq = Array.init n (fun idx -> Msts.Schedule.proc sched (idx + 1)) in
  let flat = Msts.Tree_flat.of_tree (Msts.Tree.of_spider (Msts.Spider.of_chain chain)) in
  let tests =
    Test.make_grouped ~name:"components"
      [
        Test.make ~name:"schedule(500 tasks)"
          (Staged.stage (fun () -> ignore (Msts.Chain_algorithm.schedule chain n)));
        Test.make ~name:"feasibility check"
          (Staged.stage (fun () -> ignore (Msts.Plan.check (Msts.Plan.Chain sched))));
        Test.make ~name:"ASAP timing"
          (Staged.stage (fun () -> ignore (Msts.Asap.makespan flat seq)));
        Test.make ~name:"event-driven execution"
          (Staged.stage (fun () -> ignore (Msts.Netsim.execute (Msts.Plan.Spider spider_plan))));
        Test.make ~name:"deadline pass"
          (Staged.stage (fun () ->
               ignore
                 (Msts.Chain_deadline.max_tasks chain
                    ~deadline:(Msts.Chain_algorithm.horizon chain n))));
      ]
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create
      ~title:"component costs (p=8, n=500)"
      ~columns:[ "component"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun name ->
      let key = "components/" ^ name in
      Msts.Table.add_row table
        [
          name;
          Printf.sprintf "%.0f" (estimate results key);
          Printf.sprintf "%.4f" (r2 results key);
        ])
    [
      "schedule(500 tasks)";
      "feasibility check";
      "ASAP timing";
      "event-driven execution";
      "deadline pass";
    ];
  Msts.Table.print table

(* The fork allocator on a fork's expansion: [count] virtual nodes per
   slave, already in allocation order, swept as arrays. *)
let sweep_fork fork ~count ~deadline ~budget =
  let nodes = Array.of_list (Msts.Fork_expansion.expand fork ~count) in
  Msts.Fork_allocator.sweep
    ~comm:(Array.map (fun (v : Msts.Fork_expansion.vnode) -> v.comm) nodes)
    ~work:(Array.map (fun (v : Msts.Fork_expansion.vnode) -> v.work) nodes)
    ~deadline ~budget

let fork_allocator () =
  let sizes = [ 50; 100; 200 ] in
  let tests =
    Test.make_grouped ~name:"fork"
      (List.map
         (fun n ->
           let fork =
             Msts.Generator.fork (Msts.Prng.create n)
               Msts.Generator.default_profile ~slaves:8
           in
           Test.make
             ~name:(Printf.sprintf "n=%d" n)
             (Staged.stage (fun () ->
                  ignore (sweep_fork fork ~count:n ~deadline:(n * 4) ~budget:n))))
         sizes)
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create ~title:"fork allocator (8 slaves; O(N·K) class sweep)"
      ~columns:[ "n"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun n ->
      let key = Printf.sprintf "fork/n=%d" n in
      Msts.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.0f" (estimate results key);
          Printf.sprintf "%.4f" (r2 results key);
        ])
    sizes;
  Msts.Table.print table

let implementation_comparison () =
  let chain = bench_chain ~p:6 in
  let n = 300 in
  let tests =
    Test.make_grouped ~name:"impl"
      [
        Test.make ~name:"production"
          (Staged.stage (fun () -> ignore (Msts.Chain_algorithm.schedule chain n)));
        Test.make ~name:"figure-3 transcription"
          (Staged.stage (fun () -> ignore (Chain_pseudocode.schedule chain n)));
        Test.make ~name:"incremental (deadline fill)"
          (Staged.stage (fun () ->
               let c =
                 Msts.Chain_incremental.create chain
                   ~horizon:(Msts.Chain_algorithm.horizon chain n)
               in
               ignore (Msts.Chain_incremental.fill c ~max_tasks:n ())));
        Test.make ~name:"hill climbing (same instance)"
          (Staged.stage (fun () ->
               ignore (Msts.Local_search.hill_climb_makespan ~max_rounds:3 chain n)));
      ]
  in
  let results = run_tests tests in
  let table =
    Msts.Table.create
      ~title:(Printf.sprintf "implementation comparison (p=6, n=%d)" n)
      ~columns:[ "implementation"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun name ->
      let key = "impl/" ^ name in
      Msts.Table.add_row table
        [
          name;
          Printf.sprintf "%.0f" (estimate results key);
          Printf.sprintf "%.4f" (r2 results key);
        ])
    [
      "production";
      "figure-3 transcription";
      "incremental (deadline fill)";
      "hill climbing (same instance)";
    ];
  Msts.Table.print table;
  print_endline
    "  (the three exact variants produce identical schedules -- see the"
  ;
  print_endline
    "   differential tests; the production variant exists to expose the"
  ;
  print_endline
    "   construction machinery the rest of the library builds on, at no"
  ;
  print_endline "   speed penalty over the paper's transcription)"

(* Wall time and minor words per call of [run], uninstrumented, as a
   serving daemon runs (one warm-up call first, seen by the harness's
   sink). *)
(* What a stage hands back to the harness: main.ml writes it into the
   stage's BENCH_<name>.json, under "results", beside the counter
   profile of the run. *)
let stage_results : Msts.Json.t option ref = ref None

let per_call ~iters run =
  run ();
  let sink = Msts.Obs.current_sink () in
  Msts.Obs.set_sink None;
  Fun.protect ~finally:(fun () -> Msts.Obs.set_sink sink) @@ fun () ->
  let words = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    run ()
  done;
  let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int iters in
  (us, (Gc.minor_words () -. words) /. float_of_int iters)

(* The spider binary search on the serve benchmark's cold-solve shape
   (compute-bound profile, 4 legs, depth <= 3, n = 192): wall time and
   minor words per [min_makespan] for the library and for the frozen
   reference search.  The library probes with one Moore–Hodgson pass over
   nodes built once at the ceiling; the reference rebuilds every leg
   schedule and runs the greedy allocator per probe. *)
let spider_search () =
  let n = 192 and legs = 4 and max_depth = 3 in
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs ~max_depth
  in
  let per_solve min_makespan = per_call ~iters:50 (fun () -> ignore (min_makespan spider n)) in
  let fast_us, fast_words = per_solve Msts.Spider_algorithm.min_makespan in
  let reference_us, reference_words = per_solve Kernel_reference.spider_min_makespan in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "spider search (min_makespan; compute-bound, %d legs, depth <= %d, n=%d)"
           legs max_depth n)
      ~columns:[ "kernel"; "us/solve"; "minor words/solve" ]
  in
  List.iter
    (fun (name, us, words) ->
      Msts.Table.add_row table
        [ name; Printf.sprintf "%.0f" us; Printf.sprintf "%.0f" words ])
    [ ("fast", fast_us, fast_words); ("reference", reference_us, reference_words) ];
  Msts.Table.print table;
  ( Msts.Json.Obj
      [
        ("n", Msts.Json.Int n);
        ("legs", Msts.Json.Int legs);
        ("max_depth", Msts.Json.Int max_depth);
        ("fast_us", Msts.Json.Float fast_us);
        ("reference_us", Msts.Json.Float reference_us);
        ("fast_minor_words", Msts.Json.Float fast_words);
        ("reference_minor_words", Msts.Json.Float reference_words);
        ("minor_words_ratio", Msts.Json.Float (reference_words /. fast_words));
      ],
    fast_words,
    reference_words )

(* The whole cold solve on the same shape: [schedule_tasks] is the search
   plus one plan read off its ceiling, so its words minus the search's are
   what assembling the plan costs. *)
(* Gate on the plan's own minor words (timing-independent).  Measured at
   4523 on this shape with a record per task, ~14.9k with the list
   assembly before that, and 2 870 with the plan written straight into
   its int columns; the bound leaves that figure a 15% margin. *)
let plan_words_bound = 3300.

(* Gate on the search's own minor words: 6883 when each leg's
   construction grew its store from empty, 3996 presized from the
   budget and the horizon. *)
let search_words_bound = 5000.

let spider_plan () =
  let n = 192 in
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs:4 ~max_depth:3
  in
  let plan_us, plan_words =
    per_call ~iters:50 (fun () -> ignore (Msts.Spider_algorithm.schedule_tasks spider n))
  in
  let search_us, search_words =
    per_call ~iters:50 (fun () -> ignore (Msts.Spider_algorithm.min_makespan spider n))
  in
  (* what a cache keeps of the plan: its words beyond the platform's *)
  let retained =
    Obj.reachable_words (Obj.repr (Msts.Spider_algorithm.schedule_tasks spider n))
    - Obj.reachable_words (Obj.repr spider)
  in
  let table =
    Msts.Table.create
      ~title:(Printf.sprintf "spider plan (schedule_tasks; same shape, n=%d)" n)
      ~columns:[ "call"; "us/solve"; "minor words/solve" ]
  in
  List.iter
    (fun (name, us, words) ->
      Msts.Table.add_row table
        [ name; Printf.sprintf "%.0f" us; Printf.sprintf "%.0f" words ])
    [
      ("schedule_tasks", plan_us, plan_words);
      ("min_makespan", search_us, search_words);
      ("plan only", plan_us -. search_us, plan_words -. search_words);
    ];
  Msts.Table.print table;
  Printf.printf "  retained words/plan: %d (%.2f a task)\n" retained
    (float_of_int retained /. float_of_int n);
  ( Msts.Json.Obj
      [
        ("n", Msts.Json.Int n);
        ("retained_words_per_plan", Msts.Json.Int retained);
        ("schedule_tasks_us", Msts.Json.Float plan_us);
        ("schedule_tasks_minor_words", Msts.Json.Float plan_words);
        ("min_makespan_us", Msts.Json.Float search_us);
        ("min_makespan_minor_words", Msts.Json.Float search_words);
        ("plan_minor_words", Msts.Json.Float (plan_words -. search_words));
      ],
    plan_words -. search_words,
    search_words )

(* The allocator alone as the candidate count grows: the class sweep
   against the frozen insertion loop on a 4-slave fork expanded to [N]
   nodes (4 comm classes), at a deadline that accepts about half.  The
   sweep is O(N·K) on the nodes' arrays; the insertion rescans the
   accepted array for each candidate, O(N·accepted), and sorts its list
   first. *)
let allocator_scaling () =
  let fork = Msts.Fork.of_pairs [ (1, 3); (2, 5); (3, 4); (4, 7) ] in
  let rows =
    List.map
      (fun (size, iters) ->
        let nodes = Msts.Fork_expansion.expand fork ~count:(size / 4) in
        let comm = Array.of_list (List.map (fun (v : Msts.Fork_expansion.vnode) -> v.comm) nodes)
        and work = Array.of_list (List.map (fun (v : Msts.Fork_expansion.vnode) -> v.work) nodes) in
        let deadline = size and budget = size in
        let sweep () = Msts.Fork_allocator.sweep ~comm ~work ~deadline ~budget in
        let accepted = Array.length (sweep ()) in
        let sweep_us, _ = per_call ~iters (fun () -> ignore (sweep ())) in
        let reference_us, _ =
          per_call ~iters (fun () ->
              ignore (Kernel_reference.allocate nodes ~deadline ~budget))
        in
        (size, accepted, sweep_us, reference_us))
      [ (256, 50); (1024, 10); (4096, 2) ]
  in
  let table =
    Msts.Table.create
      ~title:"fork allocator N-scaling (4 comm classes, deadline = budget = N)"
      ~columns:[ "N"; "accepted"; "sweep us"; "insertion us"; "ratio" ]
  in
  List.iter
    (fun (size, accepted, sweep_us, reference_us) ->
      Msts.Table.add_row table
        [
          string_of_int size;
          string_of_int accepted;
          Printf.sprintf "%.1f" sweep_us;
          Printf.sprintf "%.1f" reference_us;
          Printf.sprintf "%.1fx" (reference_us /. sweep_us);
        ])
    rows;
  Msts.Table.print table;
  Msts.Json.List
    (List.map
       (fun (size, accepted, sweep_us, reference_us) ->
         Msts.Json.Obj
           [
             ("n", Msts.Json.Int size);
             ("accepted", Msts.Json.Int accepted);
             ("sweep_us", Msts.Json.Float sweep_us);
             ("reference_us", Msts.Json.Float reference_us);
           ])
       rows)

(* The fast kernel vs the frozen paper-literal reference
   (Kernel_reference): head-to-head at fixed (n,p), allocation counts, and
   the p-scaling ratio check backing the complexity claim — the fast
   kernel doubles per doubling of p (linear), the reference quadruples
   (quadratic).  Results go to BENCH_kernel.json (written here;
   the harness adds the usual counter/latency profile next to it). *)
let kernel_comparison () =
  let n = 400 and p0 = 16 in
  let chain0 = bench_chain ~p:p0 in
  let solve makespan chain () = ignore (makespan chain n) in
  let fast = Msts.Chain_algorithm.makespan
  and reference = Kernel_reference.makespan in
  let head_tests =
    Test.make_grouped ~name:"kernel"
      [
        Test.make ~name:"fast" (Staged.stage (solve fast chain0));
        Test.make ~name:"reference"
          (Staged.stage (solve reference chain0));
      ]
  in
  let head = run_tests head_tests in
  let fast_ns = estimate head "kernel/fast" in
  let reference_ns = estimate head "kernel/reference" in
  let head_table =
    Msts.Table.create
      ~title:(Printf.sprintf "kernel head-to-head (n=%d, p=%d)" n p0)
      ~columns:[ "kernel"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun name ->
      let key = "kernel/" ^ name in
      Msts.Table.add_row head_table
        [
          name;
          Printf.sprintf "%.0f" (estimate head key);
          Printf.sprintf "%.4f" (r2 head key);
        ])
    [ "fast"; "reference" ];
  Msts.Table.print head_table;
  let bytes_per_solve makespan =
    let iters = 20 in
    let before = Gc.allocated_bytes () in
    for _ = 1 to iters do
      solve makespan chain0 ()
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int iters
  in
  let fast_bytes = bytes_per_solve fast in
  let reference_bytes = bytes_per_solve reference in
  Printf.printf
    "  allocations per makespan solve: fast %.0f B, reference %.0f B (%.0fx)\n"
    fast_bytes reference_bytes
    (reference_bytes /. fast_bytes);
  let sizes = [ 4; 8; 16; 32 ] in
  let scale_tests =
    Test.make_grouped ~name:"kernel-p"
      (List.concat_map
         (fun p ->
           let chain = bench_chain ~p in
           [
             Test.make
               ~name:(Printf.sprintf "fast,p=%d" p)
               (Staged.stage (solve fast chain));
             Test.make
               ~name:(Printf.sprintf "reference,p=%d" p)
               (Staged.stage (solve reference chain));
           ])
         sizes)
  in
  let scale = run_tests scale_tests in
  let estimates kernel =
    List.map
      (fun p -> estimate scale (Printf.sprintf "kernel-p/%s,p=%d" kernel p))
      sizes
  in
  let fast_curve = estimates "fast" and reference_curve = estimates "reference" in
  (* Geometric mean of the per-doubling growth, i.e. (last/first)^(1/k):
     2.00 is ideal linear, 4.00 ideal quadratic. *)
  let avg_ratio curve =
    let first = List.hd curve and last = List.nth curve (List.length curve - 1) in
    Float.pow (last /. first) (1.0 /. float_of_int (List.length curve - 1))
  in
  let fast_ratio = avg_ratio fast_curve
  and reference_ratio = avg_ratio reference_curve in
  let scale_table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "kernel p-scaling (n=%d; per-doubling growth: linear predicts 2.00, \
            quadratic 4.00)"
           n)
      ~columns:[ "p"; "fast ns/run"; "reference ns/run" ]
  in
  List.iteri
    (fun i p ->
      Msts.Table.add_row scale_table
        [
          string_of_int p;
          Printf.sprintf "%.0f" (List.nth fast_curve i);
          Printf.sprintf "%.0f" (List.nth reference_curve i);
        ])
    sizes;
  Msts.Table.print scale_table;
  Printf.printf
    "  avg per-doubling growth: fast %.2fx, reference %.2fx (ideal 2.00 vs 4.00)\n"
    fast_ratio reference_ratio;
  let spider_json, spider_fast_words, spider_reference_words = spider_search () in
  let plan_json, plan_words, search_words = spider_plan () in
  let allocator_json = allocator_scaling () in
  let json =
    Msts.Json.Obj
      [
        ("experiment", Msts.Json.String "kernel");
        ( "head_to_head",
          Msts.Json.Obj
            [
              ("n", Msts.Json.Int n);
              ("p", Msts.Json.Int p0);
              ("fast_ns", Msts.Json.Float fast_ns);
              ("reference_ns", Msts.Json.Float reference_ns);
              ("speedup", Msts.Json.Float (reference_ns /. fast_ns));
            ] );
        ( "allocations_per_solve_bytes",
          Msts.Json.Obj
            [
              ("fast", Msts.Json.Float fast_bytes);
              ("reference", Msts.Json.Float reference_bytes);
              ("ratio", Msts.Json.Float (reference_bytes /. fast_bytes));
            ] );
        ( "p_scaling",
          Msts.Json.Obj
            [
              ("n", Msts.Json.Int n);
              ("sizes", Msts.Json.List (List.map (fun p -> Msts.Json.Int p) sizes));
              ("fast_ns", Msts.Json.List (List.map (fun e -> Msts.Json.Float e) fast_curve));
              ( "reference_ns",
                Msts.Json.List (List.map (fun e -> Msts.Json.Float e) reference_curve) );
              ("fast_avg_doubling_ratio", Msts.Json.Float fast_ratio);
              ("reference_avg_doubling_ratio", Msts.Json.Float reference_ratio);
              ("ideal_linear", Msts.Json.Float 2.0);
              ("ideal_quadratic", Msts.Json.Float 4.0);
            ] );
        ("spider_search", spider_json);
        ("spider_plan", plan_json);
        ("allocator_scaling", allocator_json);
      ]
  in
  Out_channel.with_open_text "BENCH_kernel.json" (fun oc ->
      Out_channel.output_string oc (Msts.Json.to_string ~pretty:true json);
      Out_channel.output_char oc '\n');
  print_endline "  BENCH_kernel.json written";
  (* The acceptance gates: sub-quadratic p-scaling, >= 5x fewer
     allocations for the chain solve and for the spider search, the
     spider plan's assembly under [plan_words_bound] and its search under
     [search_words_bound].
     Wall-clock speedup is reported but not asserted (CI machines are
     noisy); the scaling exponent is the robust signal. *)
  assert (fast_ratio < reference_ratio);
  assert (reference_bytes >= 5.0 *. fast_bytes);
  assert (spider_reference_words >= 5.0 *. spider_fast_words);
  assert (plan_words < plan_words_bound);
  assert (search_words < search_words_bound)

let all : (string * string * (unit -> unit)) list =
  [
    ("kernel-scaling", "fast vs reference kernel: head-to-head, allocations, p-scaling",
     kernel_comparison);
    ("bench-chain-n", "E10a: runtime linear in n", scaling_in_n);
    ("bench-chain-p", "E10b: runtime quadratic in p", scaling_in_p);
    ("bench-spider", "E8: spider deadline pass scaling", spider_scaling);
    ("bench-components", "component costs", component_costs);
    ("bench-fork", "fork allocator scaling", fork_allocator);
    ("bench-impl", "production vs transcription vs incremental", implementation_comparison);
  ]
