(* Batch-scaling experiments: throughput of the multicore batch solver.

   `batch-scaling` solves one 200-instance mixed batch at jobs 1, 2 and 4
   (fresh cache each run, so every run does the same work), checks that
   every parallel outcome is structurally identical to the sequential one,
   then re-runs the batch against the now-warm shared cache.  Per-jobs
   throughput goes to BENCH_batch.json — the file CI validates and the
   perf trajectory tracks.  `batch-smoke` is the small CI variant.

   The speedup assertion is gated on the host actually having cores: on a
   single-core runner domains only timeshare, and asserting a parallel
   speedup there would test the machine, not the code. *)

let gettime = Unix.gettimeofday

let mixed_batch ~count ~seed ~tasks_lo ~tasks_hi =
  let rng = Msts.Prng.create seed in
  let profiles =
    [|
      Msts.Generator.default_profile;
      Msts.Generator.balanced_profile;
      Msts.Generator.compute_bound_profile;
      Msts.Generator.comm_bound_profile;
    |]
  in
  Array.init count (fun i ->
      let profile = profiles.(i mod Array.length profiles) in
      let platform =
        match i mod 3 with
        | 0 ->
            Msts.Platform_format.Chain_platform
              (Msts.Generator.chain rng profile ~p:(Msts.Prng.int_in rng 4 8))
        | 1 ->
            Msts.Platform_format.Spider_platform
              (Msts.Generator.spider rng profile
                 ~legs:(Msts.Prng.int_in rng 3 5)
                 ~max_depth:3)
        | _ ->
            Msts.Platform_format.Fork_platform
              (Msts.Generator.fork rng profile
                 ~slaves:(Msts.Prng.int_in rng 5 9))
      in
      Msts.Solve.problem ~tasks:(Msts.Prng.int_in rng tasks_lo tasks_hi) platform)

let outcomes_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Ok p, Ok q -> Msts.Plan.equal p q
         | Error e, Error f -> e = f
         | _ -> false)
       a b

let run_campaign ~name ~count ~seed ~tasks_hi ~jobs_list ~assert_speedup () =
  let problems = mixed_batch ~count ~seed ~tasks_lo:40 ~tasks_hi in
  let reference = ref [||] in
  let runs =
    List.map
      (fun jobs ->
        let cache = Msts.Batch.cache ~capacity:count in
        let t0 = gettime () in
        let outcomes, stats =
          Msts.Batch.run ~jobs ~cache ~solve:Msts.Solve.solve problems
        in
        let wall = gettime () -. t0 in
        assert (stats.Msts.Batch.requests = count);
        Array.iter (fun o -> assert (Result.is_ok o)) outcomes;
        if !reference = [||] then reference := outcomes
        else assert (outcomes_equal !reference outcomes);
        Printf.printf
          "  jobs=%d  wall %.3fs  %.1f instances/s  (cache %d hits / %d misses)\n"
          jobs wall
          (float_of_int count /. wall)
          stats.Msts.Batch.cache_hits stats.Msts.Batch.cache_misses;
        (jobs, wall, cache))
      jobs_list
  in
  (* warm-cache second pass: same batch against the last run's cache *)
  let _, _, warm_cache = List.nth runs (List.length runs - 1) in
  let t0 = gettime () in
  let warm_outcomes, warm_stats =
    Msts.Batch.run ~jobs:(List.length runs) ~cache:warm_cache
      ~solve:Msts.Solve.solve problems
  in
  let warm_wall = gettime () -. t0 in
  assert (warm_stats.Msts.Batch.cache_misses = 0);
  assert (outcomes_equal !reference warm_outcomes);
  Printf.printf "  warm cache  wall %.3fs  (%d hits, 0 misses)\n" warm_wall
    warm_stats.Msts.Batch.cache_hits;
  let wall_of jobs =
    match List.find_opt (fun (j, _, _) -> j = jobs) runs with
    | Some (_, w, _) -> Some w
    | None -> None
  in
  let base = Option.get (wall_of 1) in
  let speedup jobs = Option.map (fun w -> base /. w) (wall_of jobs) in
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun jobs ->
      Option.iter
        (fun s -> Printf.printf "  speedup jobs=%d: %.2fx (host cores: %d)\n" jobs s cores)
        (speedup jobs))
    (List.filter (( <> ) 1) jobs_list);
  let json =
    Msts.Json.Obj
      [
        ("experiment", Msts.Json.String name);
        ("instances", Msts.Json.Int count);
        ("host_cores", Msts.Json.Int cores);
        ( "runs",
          Msts.Json.List
            (List.map
               (fun (jobs, wall, _) ->
                 Msts.Json.Obj
                   [
                     ("jobs", Msts.Json.Int jobs);
                     ("wall_s", Msts.Json.Float wall);
                     ( "throughput_per_s",
                       Msts.Json.Float (float_of_int count /. wall) );
                   ])
               runs) );
        ( "speedups",
          Msts.Json.Obj
            (List.filter_map
               (fun jobs ->
                 Option.map
                   (fun s -> (Printf.sprintf "jobs%d" jobs, Msts.Json.Float s))
                   (speedup jobs))
               (List.filter (( <> ) 1) jobs_list)) );
        ( "warm_cache",
          Msts.Json.Obj
            [
              ("wall_s", Msts.Json.Float warm_wall);
              ("hits", Msts.Json.Int warm_stats.Msts.Batch.cache_hits);
              ("misses", Msts.Json.Int warm_stats.Msts.Batch.cache_misses);
            ] );
      ]
  in
  Out_channel.with_open_text "BENCH_batch.json" (fun oc ->
      Out_channel.output_string oc (Msts.Json.to_string ~pretty:true json);
      Out_channel.output_char oc '\n');
  print_endline "  BENCH_batch.json written";
  (* The cache pass serves every request from the cache: counts, not
     its wall time (printed above), say so on any host. *)
  assert (warm_stats.Msts.Batch.cache_hits = count);
  if assert_speedup then
    match speedup 4 with
    | Some s when cores >= 2 ->
        if s < 1.3 then (
          Printf.eprintf
            "batch-scaling: jobs=4 speedup %.2fx < 1.3x on a %d-core host\n" s
            cores;
          assert false)
    | _ ->
        Printf.printf
          "  (single-core host: scaling assertion skipped, determinism still checked)\n"

let scaling () =
  run_campaign ~name:"batch-scaling" ~count:200 ~seed:42 ~tasks_hi:120
    ~jobs_list:[ 1; 2; 4 ] ~assert_speedup:true ()

let smoke () =
  run_campaign ~name:"batch-smoke" ~count:48 ~seed:42 ~tasks_hi:80
    ~jobs_list:[ 1; 2 ] ~assert_speedup:false ()

let all =
  [
    ( "batch-scaling",
      "200-instance mixed batch at jobs 1/2/4: throughput, cache, determinism",
      scaling );
    ( "batch-smoke",
      "small batch-solver campaign for CI: structure, cache, determinism",
      smoke );
  ]
