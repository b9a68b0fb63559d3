(* Benchmark and experiment harness.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig2      # one experiment by name
     dune exec bench/main.exe -- --list    # available names

   Reproduction experiments (DESIGN.md par.3) come first, then the
   ablations, then the Bechamel timing benches backing the complexity
   claims.

   Every experiment runs under an in-memory observability sink; its
   counter totals and span timings are written to BENCH_<name>.json so
   CI (and humans) can diff algorithmic work — candidate scans, hull
   updates, simulator events — across revisions, not just wall time. *)

let registry =
  Experiments.all @ Ablations.all @ Faults.all @ Fuzz.all @ Batch_bench.all
  @ Serve_bench.all @ Online_bench.all @ Codec_bench.all @ Sim_bench.all
  @ Timing.all

let counters_path name = Printf.sprintf "BENCH_%s.json" name

(* One-line latency digest: the dominant span (by total time) and the
   busiest histogram, with their p50/p99 — enough to eyeball a latency
   shift in CI logs without opening the JSON. *)
let latency_summary mem =
  let heaviest column rows =
    List.fold_left
      (fun acc row ->
        match (List.nth_opt row column, acc) with
        | Some v, Some (_, best) when int_of_string v <= best -> acc
        | Some v, _ -> Some (row, int_of_string v)
        | None, _ -> acc)
      None rows
  in
  let span =
    match heaviest 2 (Msts.Obs.Memory.span_rows mem) with
    | Some ([ name; calls; _; _; p50; p99 ], _) ->
        Some (Printf.sprintf "span %s: %s calls, p50=%sus p99=%sus" name calls p50 p99)
    | _ -> None
  in
  let hist =
    match heaviest 1 (Msts.Obs.Memory.histogram_rows mem) with
    | Some ([ name; count; p50; _; p99; _ ], _) ->
        Some (Printf.sprintf "hist %s: %s samples, p50=%s p99=%s" name count p50 p99)
    | _ -> None
  in
  match List.filter_map Fun.id [ span; hist ] with
  | [] -> "no instrumentation recorded"
  | parts -> String.concat "; " parts

let run_one (name, description, fn) =
  Printf.printf "\n==================== %s ====================\n" name;
  Printf.printf "-- %s\n\n" description;
  let mem = Msts.Obs.Memory.create () in
  let t0 = Unix.gettimeofday () in
  Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) fn;
  let elapsed = Unix.gettimeofday () -. t0 in
  let results = !Timing.stage_results in
  Timing.stage_results := None;
  let summary = latency_summary mem in
  let json =
    Msts.Json.Obj
      ([
        ("experiment", Msts.Json.String name);
        ("description", Msts.Json.String description);
        ("wall_s", Msts.Json.Float elapsed);
        ("summary", Msts.Json.String summary);
        ( "profile",
          Msts.Obs.Memory.to_json mem );
      ]
      @ match results with Some r -> [ ("results", r) ] | None -> [])
  in
  Out_channel.with_open_text (counters_path name) (fun oc ->
      Out_channel.output_string oc (Msts.Json.to_string ~pretty:true json);
      Out_channel.output_char oc '\n');
  let totals =
    List.map
      (function
        | [ counter; total ] -> Printf.sprintf "%s=%s" counter total
        | _ -> "?")
      (Msts.Obs.Memory.counter_rows mem)
  in
  if totals <> [] then
    Printf.printf "\n[obs] counters: %s\n" (String.concat " " totals);
  Printf.printf "[obs] latency: %s\n" summary;
  Printf.printf "[obs] profile written to %s\n" (counters_path name);
  flush stdout

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] ->
      List.iter
        (fun (name, description, _) -> Printf.printf "%-20s %s\n" name description)
        registry
  | [] ->
      print_endline "msts reproduction harness: experiments, ablations, timing";
      List.iter run_one registry;
      print_endline "\nall experiments completed; assertions all held."
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) registry with
          | Some entry -> run_one entry
          | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" name;
              exit 2)
        names
