(* Long-running randomized campaign — heavier than the default test suite.

   Run with:  dune build @stress
   Exits non-zero on the first discrepancy.  Everything is seeded, so a
   failure is reproducible. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("STRESS FAILURE: " ^ s); exit 1) fmt

let section name = Printf.printf "== %s\n%!" name

(* ASAP timing of a chain destination sequence: the sweep runs on the
   one-leg spider's tree, whose node k is processor k. *)
let chain_asap chain seq =
  let spider = Msts.Spider.of_chain chain in
  let flat = Msts.Tree_flat.of_tree (Msts.Tree.of_spider spider) in
  Msts.Spider_schedule.leg_schedule
    (Msts.Tree_schedule.to_spider spider (Msts.Asap.of_sequence flat seq))
    1

let () =
  let rng = Msts.Prng.create 777 in

  section "chain optimality vs brute force (2000 instances, p<=3, n<=9)";
  for i = 1 to 2000 do
    let p = Msts.Prng.int_in rng 1 3 in
    let n = Msts.Prng.int_in rng 0 9 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    let a = Msts.Chain_algorithm.makespan chain n in
    let b = Msts.Brute_force.chain_makespan chain n in
    if a <> b then fail "instance %d: %s n=%d alg=%d bf=%d" i (Msts.Chain.to_string chain) n a b
  done;

  section "chain optimality, wider (400 instances, p=4, n<=7)";
  for i = 1 to 400 do
    let n = Msts.Prng.int_in rng 0 7 in
    let chain = Msts.Generator.chain rng Msts.Generator.balanced_profile ~p:4 in
    let a = Msts.Chain_algorithm.makespan chain n in
    let b = Msts.Brute_force.chain_makespan chain n in
    if a <> b then fail "instance %d: %s n=%d alg=%d bf=%d" i (Msts.Chain.to_string chain) n a b
  done;

  section "spider optimality vs brute force (400 instances)";
  let checked = ref 0 in
  while !checked < 400 do
    let legs = Msts.Prng.int_in rng 1 3 in
    let spider =
      Msts.Generator.spider rng Msts.Generator.balanced_profile ~legs ~max_depth:2
    in
    if Msts.Spider.processor_count spider <= 5 then begin
      incr checked;
      let n = Msts.Prng.int_in rng 1 5 in
      let a = Msts.Spider_algorithm.min_makespan spider n in
      let b = Msts.Brute_force.spider_makespan spider n in
      if a <> b then
        fail "spider %d: %s n=%d alg=%d bf=%d" !checked (Msts.Spider.to_string spider) n a b
    end
  done;

  section "chain optimality vs the pruned oracle (100 instances, n<=14)";
  for i = 1 to 100 do
    let p = Msts.Prng.int_in rng 1 5 in
    let n = Msts.Prng.int_in rng 8 14 in
    let chain = Msts.Generator.chain rng Msts.Generator.balanced_profile ~p in
    let a = Msts.Chain_algorithm.makespan chain n in
    let b = Msts.Brute_force.chain_makespan_pruned chain n in
    if a <> b then
      fail "pruned %d: %s n=%d alg=%d oracle=%d" i (Msts.Chain.to_string chain) n a b
  done;

  section "Figure-3 transcription differential (1000 instances, n<=40)";
  for i = 1 to 1000 do
    let p = Msts.Prng.int_in rng 1 6 in
    let n = Msts.Prng.int_in rng 0 40 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    if
      not
        (Msts.Schedule.equal
           (Chain_pseudocode.schedule chain n)
           (Msts.Chain_algorithm.schedule chain n))
    then fail "pseudocode divergence %d: %s n=%d" i (Msts.Chain.to_string chain) n
  done;

  section "event-driven execution vs analytic ASAP (1000 sequences)";
  for i = 1 to 1000 do
    let p = Msts.Prng.int_in rng 1 5 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    let n = Msts.Prng.int_in rng 0 25 in
    let seq = Array.init n (fun _ -> Msts.Prng.int_in rng 1 p) in
    if
      not
        (Msts.Schedule.equal
           (Eager.chain_schedule chain seq)
           (chain_asap chain seq))
    then fail "DES divergence %d: %s" i (Msts.Chain.to_string chain)
  done;

  section "deadline Galois connection (2000 instances)";
  for i = 1 to 2000 do
    let p = Msts.Prng.int_in rng 1 5 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    let n = Msts.Prng.int_in rng 1 15 in
    let d = Msts.Prng.int_in rng 0 120 in
    if Msts.Chain_deadline.max_tasks chain ~deadline:(Msts.Chain_algorithm.makespan chain n) < n
    then fail "galois-1 %d: %s n=%d" i (Msts.Chain.to_string chain) n;
    if Msts.Chain_algorithm.makespan chain (Msts.Chain_deadline.max_tasks chain ~deadline:d) > d
    then fail "galois-2 %d: %s d=%d" i (Msts.Chain.to_string chain) d
  done;

  section "feasibility of large optimal schedules (100 instances, n<=2000)";
  for i = 1 to 100 do
    let p = Msts.Prng.int_in rng 1 10 in
    let n = Msts.Prng.int_in rng 100 2000 in
    let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
    let s = Msts.Chain_algorithm.schedule chain n in
    match Feasibility_oracle.check ~require_nonnegative:true s with
    | [] -> ()
    | vs ->
        fail "large instance %d infeasible: %s (first: %s)" i
          (Msts.Chain.to_string chain)
          (Feasibility_oracle.violation_to_string (List.hd vs))
  done;

  section "domain pool: many small batches, jobs in {1,2,4} (60 batches)";
  (* Hammer the pool machinery rather than the solver: lots of small
     batches with within-batch duplicates, each checked element-wise
     against the sequential path — no lost, duplicated or reordered
     results, whatever the worker count. *)
  let outcome_equal a b =
    match (a, b) with
    | Ok p, Ok q -> Msts.Plan.equal p q
    | Error e, Error f -> String.equal e f
    | _ -> false
  in
  let shared_cache = Msts.Batch.cache ~capacity:32 in
  for batch = 1 to 60 do
    let size = Msts.Prng.int_in rng 1 24 in
    let problems =
      Array.init size (fun _ ->
          let p = Msts.Prng.int_in rng 1 4 in
          let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p in
          Msts.Solve.problem
            ~tasks:(Msts.Prng.int_in rng 0 12)
            (Msts.Platform_format.Chain_platform chain))
    in
    (* plant within-batch duplicates so the dedupe path gets exercised *)
    Array.iteri
      (fun i _ ->
        if i > 1 && i mod 5 = 0 then problems.(i) <- problems.(i / 2))
      problems;
    let expected = Array.map Msts.Solve.solve problems in
    List.iter
      (fun jobs ->
        let got, stats =
          Msts.Batch.run ~jobs ~cache:shared_cache ~solve:Msts.Solve.solve
            problems
        in
        if Array.length got <> size then
          fail "pool batch %d jobs=%d: %d results for %d requests" batch jobs
            (Array.length got) size;
        if stats.Msts.Batch.requests <> size then
          fail "pool batch %d jobs=%d: stats.requests=%d" batch jobs
            stats.Msts.Batch.requests;
        if
          stats.Msts.Batch.cache_hits + stats.Msts.Batch.cache_misses <> size
        then
          fail "pool batch %d jobs=%d: hits+misses <> requests" batch jobs;
        Array.iteri
          (fun i o ->
            if not (outcome_equal expected.(i) o) then
              fail "pool batch %d jobs=%d slot %d diverges from sequential"
                batch jobs i)
          got;
        if Msts.Batch.cache_length shared_cache > 32 then
          fail "pool batch %d jobs=%d: cache overflowed its bound" batch jobs)
      [ 1; 2; 4 ]
  done;

  section "domain pool: one long-lived pool across 40 maps";
  Msts.Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 40 do
        let size = Msts.Prng.int_in rng 1 200 in
        let items = Array.init size (fun i -> (round * 1_000) + i) in
        let got = Msts.Pool.map pool (fun x -> (x * 2) + 1) items in
        if Array.length got <> size then
          fail "pool map round %d: wrong length" round;
        Array.iteri
          (fun i v ->
            if v <> (items.(i) * 2) + 1 then
              fail "pool map round %d slot %d: got %d" round i v)
          got
      done);

  section "streaming sink: 200k events, constant memory";
  (* The acceptance bar for the JSONL sink: a >=1e5-event run must stay
     within its flush window (no unbounded buffering) and write one
     parseable line per event. *)
  let stream_path = Filename.temp_file "msts_stress_stream" ".jsonl" in
  let oc = open_out stream_path in
  let st = Msts.Obs.Streaming.create ~flush_every:1024 oc in
  Msts.Obs.with_sink (Msts.Obs.Streaming.sink st) (fun () ->
      for i = 1 to 100_000 do
        Msts.Obs.record "stress.value" (i land 1023);
        Msts.Obs.count "stress.count"
      done);
  Msts.Obs.Streaming.flush st;
  close_out oc;
  if Msts.Obs.Streaming.max_buffered st > 1024 then
    fail "streaming: buffer high-water %d exceeds flush_every 1024"
      (Msts.Obs.Streaming.max_buffered st);
  let lines = ref 0 in
  In_channel.with_open_text stream_path (fun ic ->
      try
        while true do
          let line = Option.get (In_channel.input_line ic) in
          incr lines;
          (* spot-check the JSONL shape without parsing 200k documents *)
          if !lines mod 37_777 = 1 then
            match Msts.Json.parse line with
            | Ok _ -> ()
            | Error msg -> fail "streaming: line %d unparseable: %s" !lines msg
        done
      with Invalid_argument _ -> ());
  if !lines <> 200_000 then
    fail "streaming: %d lines on disk, expected 200000" !lines;
  Sys.remove stream_path;

  section "histogram quantiles vs sorted oracle (200 sample sets)";
  for i = 1 to 200 do
    let n = Msts.Prng.int_in rng 1 2000 in
    let values = Array.init n (fun _ -> Msts.Prng.int_in rng 0 1_000_000) in
    let h = Msts.Obs.Histogram.create () in
    Array.iter (Msts.Obs.Histogram.add h) values;
    let sorted = Array.copy values in
    Array.sort compare sorted;
    List.iter
      (fun q ->
        let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
        let exact = sorted.(rank - 1) in
        let approx = Msts.Obs.Histogram.quantile h q in
        if not (approx <= exact && exact - approx <= exact / 16) then
          fail "histogram set %d q=%.2f: exact=%d approx=%d" i q exact approx)
      [ 0.5; 0.9; 0.99; 1.0 ]
  done;

  print_endline "stress campaign: all checks passed"
