(* The benchmark's entry point: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --msts PATH

   --trace 0 measures the end-to-end metrics against a forked [msts serve]
   (PATH is the built msts executable); --trace 1 is the separate traced
   run that splits the time across the layers.  Every metric is printed as
   "name value unit"; the last line is one JSON object with the verdict
   and the metrics. *)

module Json = Msts.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-34s %14.3f %s\n" x.name x.value x.unit_) metrics;
  let finite v = if Float.is_finite v then v else 0.0 in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj
                     [ ("value", Json.Float (finite x.value)); ("unit", Json.String x.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

let note fmt = Printf.printf (fmt ^^ "\n%!")

let report_failure (st : Load.stats) phase =
  Option.iter (fun why -> Printf.eprintf "perfbench: %s: %s\n%!" phase why) st.first_failure

(* The daemon's set-up is timed several times per run (all but the last
   daemon are stopped at once) and reported as the median. *)
let setup_spawns = 21

(* Share of the measured seconds planned for the closed loop; the open
   loop gets the rest.  Both are cut into slices that alternate, so each
   metric samples the whole run rather than one stretch of it. *)
let closed_share = 0.15
let slices = 8

(* Open-loop samples per latency window: enough that ten lie beyond each
   window's p99. *)
let window_samples = 1000

let merge (parts : Load.stats list) =
  let all = Load.stats () in
  List.iter
    (fun (s : Load.stats) ->
      all.sent <- all.sent + s.sent;
      all.replies <- all.replies + s.replies;
      all.failed <- all.failed + s.failed;
      if all.first_failure = None then all.first_failure <- s.first_failure;
      all.elapsed_s <- all.elapsed_s +. s.elapsed_s;
      List.iter
        (fun (into, from) -> Array.iter (Load.Samples.add into) (Load.Samples.to_array from))
        [ (all.latency, s.latency); (all.rtt, s.rtt); (all.lag, s.lag) ])
    parts;
  all

let end_to_end (w : Script.t) ~msts ~seconds =
  let setups = ref [] in
  let rec boot k =
    let d, s, c = Daemon.spawn ~msts ~jobs:w.jobs in
    setups := s :: !setups;
    if k = 1 then (d, c)
    else begin
      ignore (Daemon.stop d [ c ]);
      boot (k - 1)
    end
  in
  let d, conn = boot setup_spawns in
  let warm = Load.replay_once conn (Load.cursor w.warmup) ~window:w.window in
  report_failure warm "warm-up";
  let cur = Load.cursor w.cycle in
  let slice_s = seconds /. float_of_int slices in
  let count = int_of_float (w.closed_per_s *. closed_share *. slice_s) in
  let closed_parts, open_parts =
    List.split
      (List.init slices (fun _ ->
           let c = Load.closed conn cur ~window:w.window ~count in
           let o = Load.open_ conn cur ~rate:w.rate ~seconds:((1.0 -. closed_share) *. slice_s) in
           (c, o)))
  in
  let closed = merge closed_parts and open_ = merge open_parts in
  report_failure closed "closed loop";
  report_failure open_ "open loop";
  let rss_kb = Daemon.vm_hwm_kb d in
  let cpu_s, clean = Daemon.stop d [ conn ] in
  if not clean then prerr_endline "perfbench: daemon did not exit cleanly on SIGTERM";
  let phases = [ warm; closed; open_ ] in
  let attempted = List.fold_left (fun acc (s : Load.stats) -> acc + s.sent) 0 phases in
  let failed =
    List.fold_left (fun acc (s : Load.stats) -> acc + s.failed) 0 phases
    + if clean then 0 else 1
  in
  let replies = 1 + List.fold_left (fun acc (s : Load.stats) -> acc + s.replies) 0 phases in
  let windows =
    Reduce.windows ~min:window_samples
      (List.map (fun (s : Load.stats) -> Load.Samples.to_array s.latency) open_parts)
  in
  let pct q = if open_.replies = 0 then 0.0 else Reduce.windowed_percentile windows q in
  let throughputs =
    Array.of_list
      (List.map (fun (s : Load.stats) -> float_of_int s.replies /. s.elapsed_s) closed_parts)
  in
  let lag = Load.Samples.to_array open_.lag in
  note "workload %s: jobs=%d window=%d rate=%.0f/s" w.name w.jobs w.window w.rate;
  note "closed loop: %d replies in %.3f s over %d slices" closed.replies closed.elapsed_s slices;
  note "open loop: generator lag p50 %.1f us max %.1f us"
    (if lag = [||] then 0.0 else Reduce.median lag)
    (Array.fold_left Float.max 0.0 lag);
  List.iteri
    (fun i win ->
      let sorted = Reduce.sorted win in
      let beyond = Reduce.beyond_sorted sorted 0.99 in
      note "  latency window %d: %d samples, p50 %.1f us, p99 %.1f us, %d beyond p99" i
        (Array.length win) (Reduce.percentile_sorted sorted 0.5)
        (Reduce.percentile_sorted sorted 0.99) beyond;
      if beyond < 10 then
        Printf.eprintf "perfbench: latency window %d has only %d samples beyond its p99\n%!" i beyond)
    windows;
  let q1, q2, q3 = Reduce.quartiles (Array.of_list !setups) in
  note "setup: %d spawns, quartiles %.4f %.4f %.4f s" setup_spawns q1 q2 q3;
  (* Reported, not gated: on a shared 2-vCPU host the hypervisor's stalls
     set the p99 from run to run (see README.md). *)
  note "latency_p99_us %.3f us (median over windows)" (pct 0.99);
  note "error_rate %.6f (%d failed of %d attempted)"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  let metrics =
    [
      m "setup_s" "s" q2;
      m "throughput_rps" "1/s" (Reduce.median throughputs);
      m "latency_p50_us" "us" (pct 0.5);
      m "success_rate" "ratio" (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
      m "daemon_cpu_us_per_req" "us" (cpu_s *. 1e6 /. float_of_int replies);
      m "daemon_rss_peak_kb" "kB" (float_of_int rss_kb);
    ]
  in
  (failed = 0, max 1 attempted, failed, metrics)

(* ---------- the traced run ---------- *)

let ok_payload what = function
  | Some line -> (
      match Json.parse line with
      | Ok json -> (
          match Json.member "ok" json with
          | Some ok -> ok
          | None -> failwith (what ^ " refused: " ^ line))
      | Error e -> failwith (what ^ " unreadable: " ^ e))
  | None -> failwith (what ^ ": no reply")

let stats_frame = {|{"v":1,"id":0,"op":"stats"}|} ^ "\n"
let scrape_frame = {|{"v":1,"id":0,"op":"metrics"}|} ^ "\n"

(* request.<stage>_us (count, sum) from a stats payload. *)
let request_hist stats stage =
  let field name json =
    match Json.member name json with Some (Json.Int n) -> float_of_int n | _ -> 0.0
  in
  match Option.bind (Json.member "request" stats) (Json.member stage) with
  | Some h -> (field "count" h, field "sum" h)
  | None -> failwith ("stats lacks request." ^ stage)

let scrape ctl =
  match Json.member "body" (ok_payload "metrics scrape" (Wire.rpc ctl scrape_frame)) with
  | Some (Json.String body) -> body
  | _ -> failwith "metrics scrape without a body"

(* One sample of a Prometheus family ([name value] line), 0 when absent. *)
let sample body name =
  let prefix = name ^ " " in
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           float_of_string_opt
             (String.sub line (String.length prefix) (String.length line - String.length prefix))
         else None)
  |> Option.value ~default:0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let scrapes = 20

let traced (w : Script.t) ~msts ~seconds =
  let d, _, conn = Daemon.spawn ~msts ~jobs:w.jobs in
  let ctl =
    match Wire.connect d.Daemon.socket with
    | Ok c -> c
    | Error err -> failwith ("control connection: " ^ Unix.error_message err)
  in
  let warm = Load.replay_once conn (Load.cursor w.warmup) ~window:w.window in
  report_failure warm "warm-up";
  let stats0 = ok_payload "stats" (Wire.rpc ctl stats_frame) in
  let body0 = scrape ctl in
  let in0 = conn.Wire.bytes_out and out0 = conn.Wire.bytes_in in
  let open_ = Load.open_ conn (Load.cursor w.cycle) ~rate:w.rate ~seconds:(seconds *. 0.6) in
  report_failure open_ "open loop";
  let bytes_in = float_of_int (conn.Wire.bytes_out - in0) in
  let bytes_out = float_of_int (conn.Wire.bytes_in - out0) in
  let stats1 = ok_payload "stats" (Wire.rpc ctl stats_frame) in
  let body1 = scrape ctl in
  let scrape_us =
    let t0 = Wire.now_us () in
    for _ = 1 to scrapes do
      ignore (scrape ctl)
    done;
    (Wire.now_us () -. t0) /. float_of_int scrapes
  in
  let _, clean = Daemon.stop d [ conn; ctl ] in
  let delta stage =
    let c0, s0 = request_hist stats0 stage and c1, s1 = request_hist stats1 stage in
    (c1 -. c0, s1 -. s0)
  in
  let dq_n, dq = delta "queue_wait_us" in
  let _, ds = delta "solve_us" in
  let _, de = delta "encode_us" in
  let d name = sample body1 name -. sample body0 name in
  let residence = ratio (dq +. ds +. de) dq_n in
  let rtt = Reduce.mean (Load.Samples.to_array open_.rtt) in
  let latency = Reduce.sorted (Load.Samples.to_array open_.latency) in
  let p99 = if latency = [||] then 0.0 else Reduce.percentile_sorted latency 0.99 in
  (* in-process passes over the same script, on every CPU again *)
  Affinity.unpin ();
  let r = Layers.replay w in
  let pool = Msts.Pool.create ~jobs:w.jobs () in
  let _, untraced = Layers.decomposed ~pool ~on:false r in
  let e, traced = Layers.decomposed ~pool ~on:true r in
  Msts.Pool.shutdown pool;
  let eng = Layers.engine_pass ~jobs:w.jobs r in
  let counts = Layers.counting_pass r in
  let fingerprint_us = Layers.fingerprint_us r in
  let spans = Layers.recorded e.r in
  let n = float_of_int (Array.length r.frames) in
  let self_table = Reduce.self_by_name spans in
  let self name = Option.value ~default:0.0 (List.assoc_opt name self_table) /. n in
  let layers_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 self_table /. n in
  let inprocess = eng.handle_line_us +. eng.dispatch_us in
  (* the two reconciliations: in-process engine path against the layers'
     self times, client RTT against the daemon's own request.* stages *)
  let layers_residual = Reduce.residual ~whole:inprocess [ layers_sum ] in
  let transport = Reduce.residual ~whole:rtt [ residence ] in
  let placements = float_of_int counts.placements in
  let solves = float_of_int e.solves in
  note "workload %s: traced open loop %d requests at %.0f/s, %d beyond the p99" w.name
    open_.sent w.rate
    (if latency = [||] then 0 else Reduce.beyond_sorted latency 0.99);
  note "self time per request (us), %d requests in-process:" (Array.length r.frames);
  List.iter (fun (name, v) -> note "  %-22s %10.3f" name (v /. n)) self_table;
  note "residual 1 (in-process engine path - sum of layer self times): %.3f us"
    layers_residual;
  note "residual 2 (client rtt - daemon request.* residence): %.3f us" transport;
  note
    "counters: requests=%d kernel_scans=%d placements=%d pool_solves=%d cache_hits=%d/%d \
     engine_events=%d bytes_in=%d bytes_out=%d trace_checks=%d"
    counts.requests counts.kernel_scans counts.placements counts.pool_solves
    counts.cache_hits counts.cache_probes counts.engine_events counts.bytes_in
    counts.bytes_out counts.trace_checks;
  let failed =
    warm.failed + open_.failed + untraced.failures + traced.failures + eng.engine_failures
    + if clean then 0 else 1
  in
  let attempted = warm.sent + open_.sent + (3 * Array.length r.frames) in
  let exec_self_total = self "api.exec" *. n in
  let metrics =
    [
      m "client.latency_p99_us" "us" p99;
      m "client.rtt_us" "us" rtt;
      m "client.send_lag_us" "us" (Reduce.mean (Load.Samples.to_array open_.lag));
      m "serve.residence_us" "us" residence;
      m "serve.transport_us" "us" transport;
      m "serve.bytes_in_per_req" "B" (ratio bytes_in (float_of_int open_.sent));
      m "serve.bytes_out_per_req" "B" (ratio bytes_out (float_of_int open_.replies));
      m "engine.handle_line_us" "us" eng.handle_line_us;
      m "engine.dispatch_us" "us" eng.dispatch_us;
      m "engine.queue_wait_us" "us" (ratio dq dq_n);
      m "api.decode_us" "us" (self "api.decode");
      m "api.exec_us" "us" (self "api.exec");
      m "api.encode_us" "us" (self "api.encode");
      m "batch.fingerprint_us" "us" fingerprint_us;
      m "batch.shard_us" "us" (self "batch.shard");
      m "batch.assemble_us" "us" (self "batch.assemble");
      m "batch.cache_hit_ratio" "ratio"
        (ratio (d "msts_pool_cache_hits_total") (d "msts_pool_requests_total"));
      m "pool.queue_wait_us" "us"
        (ratio (d "msts_pool_queue_wait_us_total") (d "msts_pool_solves_total"));
      m "pool.busy_us" "us" (ratio (d "msts_pool_busy_us_total") (d "msts_pool_solves_total"));
      m "pool.completion_wait_us" "us"
        (ratio (d "msts_pool_completion_wait_us_sum") (d "msts_pool_completion_wait_us_count"));
      m "solve.us" "us" (ratio e.solve_us solves);
      m "solve.minor_words" "words" (ratio e.solve_words solves);
      m "kernel.scans_per_placement" "ratio" (ratio (float_of_int counts.kernel_scans) placements);
      m "kernel.placements_per_solve" "ratio"
        (ratio placements (float_of_int counts.pool_solves));
      m "kernel.ns_per_placement" "ns" (ratio (e.solve_us *. 1000.0) placements);
      m "sim.events_per_op" "ratio" (ratio (float_of_int counts.engine_events) n);
      m "sim.events_per_s" "1/s" (ratio (float_of_int counts.engine_events *. 1e6) exec_self_total);
      m "trace.check_us" "us"
        (ratio (float_of_int counts.trace_check_us) (float_of_int counts.trace_checks));
      m "obs.scrape_us" "us" scrape_us;
      m "obs.trace_overhead_us" "us" (traced.per_request_us -. untraced.per_request_us);
      m "reconcile.inprocess_us" "us" inprocess;
      m "reconcile.layers_sum_us" "us" layers_sum;
      m "reconcile.layers_residual_us" "us" layers_residual;
      m "count.requests" "count" (float_of_int counts.requests);
      m "count.kernel_scans" "count" (float_of_int counts.kernel_scans);
      m "count.placements" "count" placements;
      m "count.pool_solves" "count" (float_of_int counts.pool_solves);
      m "count.cache_hits" "count" (float_of_int counts.cache_hits);
      m "count.engine_events" "count" (float_of_int counts.engine_events);
      m "count.bytes_in" "B" (float_of_int counts.bytes_in);
      m "count.bytes_out" "B" (float_of_int counts.bytes_out);
    ]
  in
  (failed = 0, max 1 attempted, failed, metrics)

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let msts = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Script.all);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--msts", Arg.Set_string msts, "PATH the built msts executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --msts PATH";
  let w =
    match Script.make !workload !seed with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
          (String.concat ", " Script.all);
        exit 2
  in
  if !msts = "" || not (Sys.file_exists !msts) then begin
    prerr_endline "perfbench: --msts must name the built msts executable";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Affinity.client ();
  let t0 = Unix.gettimeofday () in
  Oracle.fill (Script.templates w);
  note "oracle: %d distinct frames answered in-process in %.2f s"
    (Array.length (Script.templates w)) (Unix.gettimeofday () -. t0);
  let correct, attempted, failed, metrics =
    if !trace = 0 then end_to_end w ~msts:!msts ~seconds:!seconds
    else traced w ~msts:!msts ~seconds:!seconds
  in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
