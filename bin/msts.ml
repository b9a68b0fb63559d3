(* msts — command-line front-end to the library.

   Every subcommand works on a platform description file (see
   Msts.Platform_format for the format); `msts generate` produces such
   files.  Solving goes through the `Msts.Solve` facade: chains get the §3
   algorithm, everything else is promoted to a spider for the §7 algorithm.
   Read-only subcommands accept `--format=text|json`; JSON goes through the
   shared `Msts.Json` encoder. *)

open Cmdliner

let read_platform path =
  match Msts.Platform_format.load path with
  | Ok platform -> platform
  | Error msg ->
      Printf.eprintf "error: cannot load platform %s: %s\n" path msg;
      exit 2

let as_spider platform =
  match Msts.Solve.as_spider platform with
  | Ok spider -> spider
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

(* ---------- common arguments ---------- *)

let platform_arg =
  let doc = "Platform description file." in
  Arg.(required & opt (some file) None & info [ "p"; "platform" ] ~docv:"FILE" ~doc)

(* A negative count is refused here, once, before any subcommand reaches
   the library with it. *)
let tasks_arg =
  let doc = "Number of tasks to schedule." in
  let refuse_negative n =
    if n < 0 then begin
      prerr_endline "error: negative task count";
      exit 2
    end;
    n
  in
  Term.(
    const refuse_negative
    $ Arg.(required & opt (some int) None & info [ "n"; "tasks" ] ~docv:"N" ~doc))

let width_arg =
  let doc = "Maximum width (columns) of ASCII Gantt charts." in
  Arg.(value & opt int 100 & info [ "width" ] ~docv:"COLS" ~doc)

let output_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

type fmt = Text | Json

let format_arg =
  let doc = "Output format: $(b,text) (default) or $(b,json)." in
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let emit output text =
  match output with
  | None -> print_string text
  | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let emit_json json = print_endline (Msts.Json.to_string ~pretty:true json)

(* A typed reply's JSON, printed from the bytes the daemon would send. *)
let emit_reply reply =
  Msts.Api.output_pretty_reply stdout reply;
  print_newline ()

let json_of_table table =
  Msts.Json.of_table ~title:(Msts.Table.title table)
    ~columns:(Msts.Table.columns table) ~rows:(Msts.Table.rows table)

let print_table fmt table =
  match fmt with
  | Text -> Msts.Table.print table
  | Json -> emit_json (json_of_table table)

(* Every solving subcommand routes through the typed request API: build an
   [Msts.Api.op], run it with {!Msts.Api.exec} over the direct (poolless)
   solver, render text from the typed reply or JSON from the one payload
   writer ([Msts.Api.output_pretty_reply]) — the same code path
   [msts serve] answers on. *)

let die_api (e : Msts.Api.error) =
  Printf.eprintf "error: %s\n" e.Msts.Api.message;
  exit 2

let exec_or_die ?cache_capacity ?(solver = Msts.Api.direct_solver) op =
  match Msts.Api.exec ?cache_capacity ~solver op with
  | Ok reply -> reply
  | Error e -> die_api e

(* ---------- generate ---------- *)

let profile_conv =
  let parse = function
    | "default" -> Ok Msts.Generator.default_profile
    | "balanced" -> Ok Msts.Generator.balanced_profile
    | "compute-bound" -> Ok Msts.Generator.compute_bound_profile
    | "comm-bound" -> Ok Msts.Generator.comm_bound_profile
    | other -> Error (`Msg (Printf.sprintf "unknown profile %S" other))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<profile>")

let generate_cmd =
  let kind =
    let doc = "Platform kind: chain, fork, spider or tree." in
    Arg.(value & opt string "chain" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let size =
    let doc = "Processors per chain / slaves per fork / legs per spider." in
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"P" ~doc)
  in
  let depth =
    let doc = "Maximum leg depth (spiders only)." in
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc)
  in
  let seed =
    let doc = "PRNG seed (results are reproducible)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let profile =
    let doc =
      "Heterogeneity profile: default, balanced, compute-bound or comm-bound."
    in
    Arg.(value & opt profile_conv Msts.Generator.default_profile
         & info [ "profile" ] ~docv:"PROFILE" ~doc)
  in
  let run kind size depth seed profile output =
    let refuse_below_one field value =
      if value < 1 then begin
        Printf.eprintf "error: field %S must be >= 1\n" field;
        exit 2
      end
    in
    refuse_below_one "size" size;
    if kind = "spider" then refuse_below_one "depth" depth;
    let rng = Msts.Prng.create seed in
    let platform =
      match kind with
      | "chain" ->
          Msts.Platform_format.Chain_platform (Msts.Generator.chain rng profile ~p:size)
      | "fork" ->
          Msts.Platform_format.Fork_platform (Msts.Generator.fork rng profile ~slaves:size)
      | "spider" ->
          Msts.Platform_format.Spider_platform
            (Msts.Generator.spider rng profile ~legs:size ~max_depth:depth)
      | "tree" ->
          Msts.Platform_format.Tree_platform
            (Msts.Generator.tree rng profile ~nodes:size ~max_children:3)
      | other ->
          Printf.eprintf "error: unknown kind %S\n" other;
          exit 2
    in
    emit output (Msts.Platform_format.platform_to_string platform)
  in
  let doc = "Generate a random platform description." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run $ kind $ size $ depth $ seed $ profile $ output_arg)

(* ---------- schedule ---------- *)

let schedule_cmd =
  let gantt =
    let doc = "Also print an ASCII Gantt chart." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let svg =
    let doc = "Write an SVG Gantt chart to $(docv)." in
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)
  in
  let plan_out =
    let doc = "Write the machine-readable schedule to $(docv)." in
    Arg.(value & opt (some string) None & info [ "plan-out" ] ~docv:"FILE" ~doc)
  in
  let csv =
    let doc = "Write a per-task CSV table to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run path n fmt gantt svg plan_out csv width =
    let platform = read_platform path in
    let reply =
      exec_or_die (Msts.Api.Schedule (Msts.Solve.problem ~tasks:n platform))
    in
    let plan =
      match reply with Msts.Api.Solved { plan; _ } -> plan | _ -> assert false
    in
    (match fmt with
    | Text ->
        Printf.printf "optimal makespan: %d\n%s\n" (Msts.Plan.makespan plan)
          (Msts.Plan.to_string plan);
        if gantt then print_endline (Msts.Plan.gantt ~width plan)
    | Json -> emit_reply reply);
    Option.iter (fun f -> Msts.Svg.save f (Msts.Plan.svg plan)) svg;
    Option.iter (fun f -> emit (Some f) (Msts.Plan.serialize plan)) plan_out;
    Option.iter (fun f -> emit (Some f) (Msts.Plan.to_csv plan ^ "\n")) csv
  in
  let doc = "Compute the optimal schedule for N tasks." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ platform_arg $ tasks_arg $ format_arg $ gantt
      $ svg $ plan_out $ csv $ width_arg)

(* ---------- deadline ---------- *)

let deadline_cmd =
  let deadline =
    let doc = "Time limit." in
    Arg.(required & opt (some int) None & info [ "d"; "deadline" ] ~docv:"T" ~doc)
  in
  let run path deadline fmt =
    let platform = read_platform path in
    let reply =
      exec_or_die (Msts.Api.Deadline (Msts.Solve.problem ~deadline platform))
    in
    let plan =
      match reply with Msts.Api.Solved { plan; _ } -> plan | _ -> assert false
    in
    match fmt with
    | Text ->
        Printf.printf "tasks completed by %d: %d\n%s\n" deadline
          (Msts.Plan.task_count plan)
          (Msts.Plan.to_string plan)
    | Json -> emit_reply reply
  in
  let doc = "Maximise the number of tasks completed within a deadline." in
  Cmd.v (Cmd.info "deadline" ~doc)
    Term.(const run $ platform_arg $ deadline $ format_arg)

(* ---------- validate ---------- *)

let validate_cmd =
  let plan =
    let doc = "Schedule file produced by $(b,schedule --plan-out)." in
    Arg.(required & opt (some file) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let run path plan_path =
    let text = In_channel.with_open_text plan_path In_channel.input_all in
    let parsed =
      match read_platform path with
      | Msts.Platform_format.Chain_platform chain ->
          Result.map (fun s -> Msts.Plan.Chain s) (Msts.Serial.schedule_of_string chain text)
      | platform ->
          Result.map
            (fun s -> Msts.Plan.Spider s)
            (Msts.Serial.spider_schedule_of_string (as_spider platform) text)
    in
    match parsed with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 2
    | Ok plan -> (
        match Msts.Plan.check ~require_nonnegative:true plan with
        | [] -> Printf.printf "feasible; makespan %d\n" (Msts.Plan.makespan plan)
        | violations ->
            List.iter print_endline violations;
            exit 1)
  in
  let doc = "Check a schedule against Definition 1 (exit 1 if infeasible)." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ platform_arg $ plan)

(* ---------- check ---------- *)

let check_cmd =
  let trace_flag =
    let doc =
      "Also run the plan through the simulator under the trace recorder — \
       the eager execution and a seeded fault replay — and audit the \
       recorded events, not just the planned ones."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the fault replay recorded under $(b,--trace)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let events_arg =
    let doc = "Fault events injected into the recorded fault replay." in
    Arg.(value & opt int 3 & info [ "events" ] ~docv:"E" ~doc)
  in
  let run path n do_trace seed events fmt =
    let platform = read_platform path in
    let reply =
      exec_or_die
        (Msts.Api.Check
           {
             problem = Msts.Solve.problem ~tasks:n platform;
             trace = do_trace;
             seed;
             events;
           })
    in
    let plan, oracle, sections, ok =
      match reply with
      | Msts.Api.Checked { plan; oracle; sections; ok } ->
          (plan, oracle, sections, ok)
      | _ -> assert false
    in
    (match fmt with
    | Text ->
        Printf.printf "plan: %d tasks, makespan %d\n"
          (Msts.Plan.task_count plan) (Msts.Plan.makespan plan);
        (match oracle with
        | [] -> print_endline "feasibility oracle: ok"
        | problems ->
            Printf.printf "feasibility oracle: %d violation(s)\n"
              (List.length problems);
            List.iter (fun p -> Printf.printf "  %s\n" p) problems);
        List.iter
          (fun { Msts.Api.label; trace; violations } ->
            match violations with
            | [] ->
                Printf.printf "%s: %d events — all invariants hold\n" label
                  (Msts.Trace.length trace)
            | _ ->
                Printf.printf "%s: %d events\n%s\n" label
                  (Msts.Trace.length trace)
                  (Msts.Trace.report trace violations))
          sections
    | Json -> emit_reply reply);
    if not ok then exit 1
  in
  let doc =
    "Audit a solved plan with the trace invariant checker \
     (docs/VERIFICATION.md): the planned trace always, plus ($(b,--trace)) \
     the recorded eager execution and a seeded fault replay.  The \
     feasibility oracle runs alongside as a cross-check.  Exits 1 on any \
     violation."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ platform_arg $ tasks_arg $ trace_flag
      $ seed_arg $ events_arg $ format_arg)

(* ---------- explain ---------- *)

let explain_cmd =
  let run path n =
    let narrate () =
      match read_platform path with
      | Msts.Platform_format.Chain_platform chain ->
          Msts.Chain_trace.render (Msts.Chain_trace.run chain n)
      | platform ->
          let spider = as_spider platform in
          let deadline = Msts.Spider_algorithm.min_makespan spider n in
          Msts.Spider_trace.render (Msts.Spider_trace.run ~budget:n spider ~deadline)
    in
    match narrate () with
    | text -> print_string text
    | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let doc = "Narrate the construction step by step (chains and spiders)." in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ platform_arg $ tasks_arg)

(* ---------- bounds ---------- *)

let bounds_cmd =
  let run path n fmt =
    let spider, optimal, policies =
      match read_platform path with
      | Msts.Platform_format.Chain_platform chain ->
          ( Msts.Spider.of_chain chain,
            Msts.Chain_algorithm.makespan chain n,
            Msts.Tree_heuristics.chain_policies )
      | platform ->
          let spider = as_spider platform in
          ( spider,
            Msts.Spider_algorithm.min_makespan spider n,
            Msts.Tree_heuristics.spider_policies )
    in
    let table =
      Msts.Table.create ~title:(Printf.sprintf "bounds and schedulers, n=%d" n)
        ~columns:[ "method"; "makespan" ]
    in
    Msts.Table.add_row table
      [ "port lower bound"; string_of_int (Msts.Bounds.spider_port_bound spider n) ];
    Msts.Table.add_row table
      [
        "capacity lower bound";
        string_of_int (Msts.Bounds.spider_capacity_bound spider n);
      ];
    Msts.Table.add_row table
      [
        "fluid lower bound";
        Msts.Table.cell_float (Msts.Bounds.spider_fluid_bound spider n);
      ];
    Msts.Table.add_row table [ "optimal (this paper)"; string_of_int optimal ];
    let tree = Msts.Tree.of_spider spider in
    List.iter
      (fun (name, policy) ->
        Msts.Table.add_row table
          [
            "heuristic " ^ name;
            string_of_int (Msts.Tree_heuristics.makespan policy tree n);
          ])
      policies;
    print_table fmt table
  in
  let doc = "Compare the optimal makespan with lower bounds and heuristics." in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(const run $ platform_arg $ tasks_arg $ format_arg)

(* ---------- throughput ---------- *)

let throughput_cmd =
  let run path =
    let spider = as_spider (read_platform path) in
    let rates = Msts.Steady_state.spider_leg_rates spider in
    Printf.printf "steady-state throughput: %.4f tasks/unit\n"
      (Msts.Steady_state.spider_throughput spider);
    Array.iteri
      (fun idx rate -> Printf.printf "  leg %d: %.4f tasks/unit\n" (idx + 1) rate)
      rates
  in
  let doc = "Bandwidth-centric steady-state analysis." in
  Cmd.v (Cmd.info "throughput" ~doc) Term.(const run $ platform_arg)

(* ---------- pull ---------- *)

let pull_cmd =
  let buffer =
    let doc = "Per-processor credit of the demand-driven master." in
    Arg.(value & opt int 1 & info [ "buffer" ] ~docv:"B" ~doc)
  in
  let run path n buffer =
    if buffer < 1 then begin
      prerr_endline "error: field \"buffer\" must be >= 1";
      exit 2
    end;
    let spider = as_spider (read_platform path) in
    let sched = Msts.Netsim.pull_policy ~buffer spider ~tasks:n in
    let optimal = Msts.Spider_algorithm.min_makespan spider n in
    Printf.printf
      "demand-driven makespan: %d (optimal %d, overhead %.1f%%)\n"
      (Msts.Spider_schedule.makespan sched)
      optimal
      (100.0
      *. (float_of_int (Msts.Spider_schedule.makespan sched - optimal)
         /. float_of_int (max optimal 1)))
  in
  let doc = "Simulate the online demand-driven baseline (SETI@home style)." in
  Cmd.v (Cmd.info "pull" ~doc) Term.(const run $ platform_arg $ tasks_arg $ buffer)

(* ---------- tree ---------- *)

let tree_cmd =
  let run path n =
    match read_platform path with
    | Msts.Platform_format.Tree_platform tree ->
        let table =
          Msts.Table.create
            ~title:(Printf.sprintf "tree scheduling, n=%d" n)
            ~columns:[ "method"; "makespan" ]
        in
        List.iter
          (fun (name, policy) ->
            Msts.Table.add_row table
              [
                "cover: " ^ name;
                string_of_int (Msts.Tree_heuristics.spider_cover_makespan policy tree n);
              ])
          [
            ("fastest processor", Msts.Tree.Fastest_processor);
            ("cheapest link", Msts.Tree.Cheapest_link);
            ("best subtree rate", Msts.Tree.Best_rate);
          ];
        List.iter
          (fun (name, policy) ->
            Msts.Table.add_row table
              [
                "forward: " ^ name;
                string_of_int (Msts.Tree_heuristics.makespan policy tree n);
              ])
          Msts.Tree_heuristics.tree_policies;
        Msts.Table.add_row table
          [ "lower bound"; string_of_int (Msts.Tree_search.lower_bound tree n) ];
        Msts.Table.print table;
        Printf.printf "steady-state rate of the full tree: %.4f tasks/unit\n"
          (Msts.Steady_state.tree_throughput tree)
    | _ ->
        Printf.eprintf "error: `msts tree` expects a tree platform\n";
        exit 2
  in
  let doc = "Schedule on a general tree via spider covers and heuristics." in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const run $ platform_arg $ tasks_arg)

(* ---------- metrics ---------- *)

let metrics_cmd =
  let run path n fmt =
    let platform = read_platform path in
    let reply =
      exec_or_die (Msts.Api.Metrics (Msts.Solve.problem ~tasks:n platform))
    in
    let plan =
      match reply with Msts.Api.Measured plan -> plan | _ -> assert false
    in
    match fmt with
    | Text -> print_string (Msts.Metrics.summary plan)
    | Json -> emit_reply reply
  in
  let doc = "Waiting, buffering and utilisation report for the optimal schedule." in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const run $ platform_arg $ tasks_arg $ format_arg)

(* ---------- faults ---------- *)

let faults_cmd =
  let trace_arg =
    let doc =
      "Fault trace file: one `<time> <kind> <leg> <depth> [<value>]` per \
       line, kinds slow-proc, slow-link, drop, crash.  Omit to generate a \
       seeded random trace instead."
    in
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the generated trace (ignored with --trace)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let events_arg =
    let doc = "Number of events in the generated trace (ignored with --trace)." in
    Arg.(value & opt int 4 & info [ "events" ] ~docv:"E" ~doc)
  in
  let gantt_arg =
    let doc = "Also print the realised routing of the replanned run." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let run path n trace_file seed events fmt gantt width =
    let spider = as_spider (read_platform path) in
    let plan = Msts.Spider_algorithm.schedule_tasks spider n in
    let planned = Msts.Spider_schedule.makespan plan in
    let trace =
      match trace_file with
      | Some file -> (
          match Msts.Fault.load file with
          | Ok trace -> trace
          | Error msg ->
              Printf.eprintf "error: cannot load trace %s: %s\n" file msg;
              exit 2)
      | None ->
          if events < 0 then (
            Printf.eprintf "error: field \"events\" must be >= 0\n";
            exit 2);
          if events > Msts.Api.max_replay_events then (
            Printf.eprintf "error: field \"events\" must be <= %d\n"
              Msts.Api.max_replay_events;
            exit 2);
          Msts.Fault.random (Msts.Prng.create seed) spider ~events
            ~horizon:planned
    in
    (match Msts.Fault.validate spider trace with
    | [] -> ()
    | problems ->
        Printf.eprintf "error: trace does not fit the platform:\n";
        List.iter (fun p -> Printf.eprintf "  %s\n" p) problems;
        exit 2);
    if fmt = Text then
      Printf.printf "fault trace:\n%s" (Msts.Fault.to_string trace);
    let static, replanned, pull =
      try
        ( Msts.Netsim.replay_under_faults ~trace plan,
          Msts.Replan.replay ~trace plan,
          Msts.Netsim.pull_under_faults ~trace spider ~tasks:n )
      with Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    in
    let table =
      Msts.Table.create
        ~title:(Printf.sprintf "execution under faults, n=%d" n)
        ~columns:[ "policy"; "makespan"; "aborted"; "re-issued"; "retries" ]
    in
    Msts.Table.add_row table
      [ "planned (no faults)"; string_of_int planned; "-"; "-"; "-" ];
    let row name (r : Msts.Netsim.fault_report) =
      Msts.Table.add_row table
        [
          name;
          string_of_int r.observed_makespan;
          string_of_int r.aborted_ops;
          string_of_int r.returned_tasks;
          string_of_int r.transfer_retries;
        ]
    in
    row "static replay (blind)" static;
    row
      (Printf.sprintf "replan on fault (%d/%d adopted)" replanned.Msts.Replan.replans
         replanned.Msts.Replan.considered)
      replanned.Msts.Replan.report;
    row "demand-driven pull" pull;
    (match fmt with
    | Text ->
        Msts.Table.print table;
        if gantt then
          print_string
            (Msts.Plan.gantt ~width (Msts.Plan.Spider replanned.Msts.Replan.report.observed))
    | Json ->
        emit_json
          (Msts.Json.Obj
             [
               ( "trace",
                 Msts.Json.List
                   (Msts.Fault.to_string trace |> String.split_on_char '\n'
                   |> List.filter (fun l -> l <> "")
                   |> List.map (fun l -> Msts.Json.String l)) );
               ("replans_adopted", Msts.Json.Int replanned.Msts.Replan.replans);
               ("replans_considered", Msts.Json.Int replanned.Msts.Replan.considered);
               ("results", json_of_table table);
             ]))
  in
  let doc =
    "Inject mid-run faults (slowdowns, transfer drops, crashes) and compare \
     blind static replay, online replanning and the demand-driven baseline."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ platform_arg $ tasks_arg $ trace_arg $ seed_arg $ events_arg
      $ format_arg $ gantt_arg $ width_arg)

(* ---------- batch ---------- *)

let batch_cmd =
  let manifest_arg =
    let doc =
      "Manifest file: one instance per line, `<platform-file> <tasks> \
       [<deadline>]` ($(b,-) for no task budget), `#` comments ignored."
    in
    Arg.(value & opt (some file) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let count_arg =
    let doc = "Generate $(docv) seeded random instances instead of reading a manifest." in
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the generated instances." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains ($(b,0) = one per recommended core).  Outputs are \
       byte-identical whatever $(docv) is."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"J" ~doc)
  in
  let cache_arg =
    let doc = "Capacity of the LRU solve cache." in
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"K" ~doc)
  in
  let parse_manifest path =
    let problems = ref [] in
    In_channel.with_open_text path (fun ic ->
        let lineno = ref 0 in
        try
          while true do
            let line = In_channel.input_line ic |> Option.get in
            incr lineno;
            let line =
              match String.index_opt line '#' with
              | Some i -> String.sub line 0 i
              | None -> line
            in
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [] -> ()
            | file :: rest ->
                let objective name = function
                  | "-" -> None
                  | s -> (
                      match int_of_string_opt s with
                      | Some v -> Some v
                      | None ->
                          Printf.eprintf "error: %s:%d: bad %s %S\n" path !lineno
                            name s;
                          exit 2)
                in
                let tasks, deadline =
                  match rest with
                  | [ n ] -> (objective "task count" n, None)
                  | [ n; d ] -> (objective "task count" n, objective "deadline" d)
                  | _ ->
                      Printf.eprintf
                        "error: %s:%d: expected `<file> <tasks> [<deadline>]`\n"
                        path !lineno;
                      exit 2
                in
                problems :=
                  Msts.Solve.problem ?tasks ?deadline (read_platform file)
                  :: !problems
          done
        with Invalid_argument _ -> ());
    Array.of_list (List.rev !problems)
  in
  (* Seeded mixed workload: all four generator profiles, three platform
     shapes, and a deterministic sprinkling of exact duplicates so the
     solve cache has something to do. *)
  let generated ~count ~seed =
    let rng = Msts.Prng.create seed in
    let profiles =
      [|
        Msts.Generator.default_profile;
        Msts.Generator.balanced_profile;
        Msts.Generator.compute_bound_profile;
        Msts.Generator.comm_bound_profile;
      |]
    in
    let fresh i =
      let profile = profiles.(i mod Array.length profiles) in
      let platform =
        match i mod 3 with
        | 0 ->
            Msts.Platform_format.Chain_platform
              (Msts.Generator.chain rng profile ~p:(Msts.Prng.int_in rng 2 5))
        | 1 ->
            Msts.Platform_format.Spider_platform
              (Msts.Generator.spider rng profile
                 ~legs:(Msts.Prng.int_in rng 2 4)
                 ~max_depth:2)
        | _ ->
            Msts.Platform_format.Fork_platform
              (Msts.Generator.fork rng profile ~slaves:(Msts.Prng.int_in rng 2 5))
      in
      Msts.Solve.problem ~tasks:(Msts.Prng.int_in rng 3 24) platform
    in
    let out = Array.make count (Msts.Solve.problem (fresh 0).Msts.Solve.platform) in
    for i = 0 to count - 1 do
      out.(i) <- (if i mod 4 = 3 then out.(i / 2) else fresh i)
    done;
    out
  in
  let run manifest count seed jobs cache_size fmt =
    if cache_size < 1 then begin
      Printf.eprintf "error: --cache-size must be >= 1\n";
      exit 2
    end;
    let problems =
      match (manifest, count) with
      | Some _, Some _ ->
          Printf.eprintf "error: --manifest and --count are mutually exclusive\n";
          exit 2
      | Some path, None -> parse_manifest path
      | None, Some n ->
          if n < 1 then begin
            Printf.eprintf "error: --count must be >= 1\n";
            exit 2
          end;
          generated ~count:n ~seed
      | None, None ->
          Printf.eprintf "error: give either --manifest or --count\n";
          exit 2
    in
    let cache = Msts.Batch.cache ~capacity:cache_size in
    let jobs = if jobs <= 0 then None else Some jobs in
    let solver requests =
      Msts.Batch.run ?jobs ~cache ~solve:Msts.Solve.solve requests
    in
    let reply =
      exec_or_die ~cache_capacity:cache_size ~solver (Msts.Api.Batch problems)
    in
    let outcomes, stats =
      match reply with
      | Msts.Api.Batched { outcomes; stats; _ } -> (outcomes, stats)
      | _ -> assert false
    in
    let kind_of i =
      match problems.(i).Msts.Solve.platform with
      | Msts.Platform_format.Chain_platform _ -> "chain"
      | Msts.Platform_format.Fork_platform _ -> "fork"
      | Msts.Platform_format.Spider_platform _ -> "spider"
      | Msts.Platform_format.Tree_platform _ -> "tree"
    in
    let failures =
      Array.fold_left
        (fun acc -> function Ok _ -> acc | Error _ -> acc + 1)
        0 outcomes
    in
    (match fmt with
    | Text ->
        Printf.printf "batch: %d instances (cache capacity %d)\n"
          stats.Msts.Batch.requests cache_size;
        Array.iteri
          (fun i outcome ->
            match outcome with
            | Ok plan ->
                Printf.printf "  %d: kind=%s tasks=%d makespan=%d\n" (i + 1)
                  (kind_of i) (Msts.Plan.task_count plan) (Msts.Plan.makespan plan)
            | Error msg ->
                Printf.printf "  %d: kind=%s error=%s\n" (i + 1) (kind_of i) msg)
          outcomes;
        (* The counter block `msts profile` would show, without running a
           sink: batch statistics are part of the deterministic output. *)
        Printf.printf "pool.cache_hits: %d\n" stats.Msts.Batch.cache_hits;
        Printf.printf "pool.cache_misses: %d\n" stats.Msts.Batch.cache_misses;
        Printf.printf "pool.solves: %d\n" stats.Msts.Batch.cache_misses
    | Json -> emit_reply reply);
    if failures > 0 then exit 1
  in
  let doc =
    "Solve many instances at once on a domain pool with an LRU solve cache.  \
     Results are in submission order and byte-identical for any --jobs."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ manifest_arg $ count_arg $ seed_arg $ jobs_arg
      $ cache_arg $ format_arg)

(* ---------- profile ---------- *)

let profile_cmd =
  let tasks_arg =
    let doc = "Number of tasks in the profiled workload." in
    Arg.(value & opt int 16 & info [ "n"; "tasks" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Solve for a deadline instead of a task count." in
    Arg.(value & opt (some int) None & info [ "d"; "deadline" ] ~docv:"T" ~doc)
  in
  let workload_arg =
    let doc =
      "Workload to instrument: $(b,solve) (construction only), \
       $(b,execute) (solve, then event-driven execution; default), \
       $(b,pull) (demand-driven baseline) or $(b,faults) (seeded fault \
       trace with online replanning)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("solve", Msts.Api.Solve_only);
               ("execute", Msts.Api.Execute);
               ("pull", Msts.Api.Pull);
               ("faults", Msts.Api.Faults);
             ])
          Msts.Api.Execute
      & info [ "workload" ] ~docv:"KIND" ~doc)
  in
  let trace_out_arg =
    let doc = "Write a Chrome trace_event JSON file to $(docv) (open in \
               about:tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the faults workload." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let events_arg =
    let doc = "Fault events for the faults workload." in
    Arg.(value & opt int 4 & info [ "events" ] ~docv:"E" ~doc)
  in
  let run path n deadline workload trace_out seed events fmt =
    let platform = read_platform path in
    let reply =
      exec_or_die
        (Msts.Api.Profile { platform; tasks = n; deadline; workload; seed; events })
    in
    let summary, mem =
      match reply with
      | Msts.Api.Profiled { summary; mem } -> (summary, mem)
      | _ -> assert false
    in
    let trace_info =
      Option.map
        (fun file ->
          let trace = Msts.Obs.Memory.chrome_trace mem in
          let text = Msts.Json.to_string ~pretty:true trace in
          emit (Some file) (text ^ "\n");
          (* re-read and re-parse: the written artefact itself is checked *)
          let events =
            match
              Msts.Json.parse (In_channel.with_open_text file In_channel.input_all)
            with
            | Error msg ->
                Printf.eprintf "error: emitted trace is invalid JSON: %s\n" msg;
                exit 1
            | Ok json -> (
                match Msts.Json.member "traceEvents" json with
                | Some (Msts.Json.List evs) -> List.length evs
                | _ ->
                    Printf.eprintf "error: emitted trace lacks traceEvents\n";
                    exit 1)
          in
          (file, events))
        trace_out
    in
    match fmt with
    | Text ->
        List.iter
          (fun (key, value) ->
            let v =
              match value with
              | Msts.Json.String s -> s
              | Msts.Json.Int i -> string_of_int i
              | other -> Msts.Json.to_string other
            in
            Printf.printf "%s: %s\n" key v)
          summary;
        let counters =
          Msts.Table.create ~title:"counters" ~columns:[ "counter"; "total" ]
        in
        List.iter (Msts.Table.add_row counters) (Msts.Obs.Memory.counter_rows mem);
        Msts.Table.print counters;
        let spans =
          Msts.Table.create ~title:"spans"
            ~columns:[ "span"; "calls"; "total_us"; "max_us"; "p50_us"; "p99_us" ]
        in
        List.iter (Msts.Table.add_row spans) (Msts.Obs.Memory.span_rows mem);
        Msts.Table.print spans;
        (match Msts.Obs.Memory.histogram_rows mem with
        | [] -> ()
        | rows ->
            let hists =
              Msts.Table.create ~title:"histograms"
                ~columns:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
            in
            List.iter (Msts.Table.add_row hists) rows;
            Msts.Table.print hists);
        Option.iter
          (fun (file, events) ->
            Printf.printf "trace: %s (%d events, valid chrome trace)\n" file events)
          trace_info
    | Json -> (
        let trace_fields =
          match trace_info with
          | None -> []
          | Some (file, events) ->
              [
                ( "trace",
                  Msts.Json.Obj
                    [
                      ("file", Msts.Json.String file);
                      ("events", Msts.Json.Int events);
                    ] );
              ]
        in
        match Msts.Api.json_of_reply reply with
        | Msts.Json.Obj kvs -> emit_json (Msts.Json.Obj (kvs @ trace_fields))
        | other -> emit_json other)
  in
  let doc =
    "Run a solve/simulate workload with the observability sink installed: \
     counter totals, span timings, and optionally a Chrome trace_event \
     file for about:tracing / Perfetto."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ platform_arg $ tasks_arg $ deadline_arg
      $ workload_arg $ trace_out_arg $ seed_arg $ events_arg $ format_arg)

(* ---------- report ---------- *)

let report_cmd =
  let tasks_arg =
    let doc = "Number of tasks in the reported workload." in
    Arg.(value & opt int 16 & info [ "n"; "tasks" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Solve for a deadline instead of a task count." in
    Arg.(value & opt (some int) None & info [ "d"; "deadline" ] ~docv:"T" ~doc)
  in
  let planned_arg =
    let doc = "Report the planned schedule instead of the realized execution." in
    Arg.(value & flag & info [ "planned" ] ~doc)
  in
  let run path n deadline planned fmt =
    let platform = read_platform path in
    let problem =
      match deadline with
      | Some d -> Msts.Solve.problem ~deadline:d platform
      | None -> Msts.Solve.problem ~tasks:n platform
    in
    let reply = exec_or_die (Msts.Api.Report { problem; planned }) in
    let source, report =
      match reply with
      | Msts.Api.Reported { source; report } -> (source, report)
      | _ -> assert false
    in
    match fmt with
    | Text ->
        Printf.printf "source: %s\n" source;
        print_string (Msts.Obs.Report.summary report)
    | Json -> emit_reply reply
  in
  let doc =
    "Per-resource utilization of a run: master-port saturation, per-link \
     busy fractions, and per-processor compute/starved/idle breakdowns \
     (the three sum to the makespan exactly)."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ platform_arg $ tasks_arg $ deadline_arg
      $ planned_arg $ format_arg)

(* ---------- trace diff ---------- *)

let trace_diff_cmd =
  let file_a =
    let doc =
      "Baseline profile JSON ($(b,msts profile --format=json) output or a \
       $(b,BENCH_*.json) file)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc)
  in
  let file_b =
    let doc = "Candidate profile JSON compared against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE" ~doc)
  in
  let threshold_arg =
    let doc =
      "Relative increase (percent) beyond which a change counts as a \
       regression."
    in
    Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  (* Only deterministic material is compared: counter totals, span call
     counts and the simulated-time histograms.  Wall-clock span durations
     vary run to run and would make the exit status flaky. *)
  let load_profile path =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Msts.Json.parse text with
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 2
    | Ok json -> (
        match Msts.Json.member "profile" json with
        | Some profile -> profile (* BENCH_<name>.json wrapper *)
        | None -> json)
  in
  let run file_a file_b threshold fmt =
    let a = load_profile file_a and b = load_profile file_b in
    let changes = ref [] in
    let note section name metric va vb =
      if va <> vb then changes := (section, name, metric, va, vb) :: !changes
    in
    let names kvs kvs' =
      List.sort_uniq compare (List.map fst kvs @ List.map fst kvs')
    in
    let int_member key = function
      | Some (Msts.Json.Obj kvs) -> (
          match List.assoc_opt key kvs with
          | Some (Msts.Json.Int i) -> i
          | _ -> 0)
      | _ -> 0
    in
    (* top-level summary integers: makespans, task counts *)
    (match (a, b) with
    | Msts.Json.Obj ka, Msts.Json.Obj kb ->
        List.iter
          (fun name ->
            let get kvs =
              match List.assoc_opt name kvs with
              | Some (Msts.Json.Int i) -> Some i
              | _ -> None
            in
            match (get ka, get kb) with
            | Some va, Some vb -> note "summary" name "value" va vb
            | _ -> ())
          (names ka kb)
    | _ -> ());
    let section name json =
      match Msts.Json.member name json with
      | Some (Msts.Json.Obj kvs) -> kvs
      | _ -> []
    in
    let ca = section "counters" a and cb = section "counters" b in
    List.iter
      (fun name ->
        let get kvs =
          match List.assoc_opt name kvs with
          | Some (Msts.Json.Int i) -> i
          | _ -> 0
        in
        note "counter" name "total" (get ca) (get cb))
      (names ca cb);
    let sa = section "spans" a and sb = section "spans" b in
    List.iter
      (fun name ->
        note "span" name "calls"
          (int_member "calls" (List.assoc_opt name sa))
          (int_member "calls" (List.assoc_opt name sb)))
      (names sa sb);
    let ha = section "histograms" a and hb = section "histograms" b in
    List.iter
      (fun name ->
        List.iter
          (fun metric ->
            note "histogram" name metric
              (int_member metric (List.assoc_opt name ha))
              (int_member metric (List.assoc_opt name hb)))
          [ "count"; "p50"; "p99"; "max" ])
      (names ha hb);
    let changes = List.rev !changes in
    let regression (_, _, _, va, vb) =
      vb > va
      && float_of_int (vb - va) *. 100.0 > threshold *. float_of_int (max va 1)
    in
    let regressions = List.filter regression changes in
    let delta_pct va vb =
      100.0 *. float_of_int (vb - va) /. float_of_int (max va 1)
    in
    (match fmt with
    | Text ->
        Printf.printf "trace diff: %s -> %s (threshold %.1f%%)\n" file_a file_b
          threshold;
        if changes = [] then print_endline "no differences"
        else begin
          let table =
            Msts.Table.create ~title:"changes"
              ~columns:
                [ "section"; "name"; "metric"; "baseline"; "candidate"; "delta" ]
          in
          List.iter
            (fun ((s, n, m, va, vb) as c) ->
              Msts.Table.add_row table
                [
                  s;
                  n;
                  m;
                  string_of_int va;
                  string_of_int vb;
                  Printf.sprintf "%+.1f%%%s" (delta_pct va vb)
                    (if regression c then " !" else "");
                ])
            changes;
          Msts.Table.print table
        end;
        Printf.printf "regressions: %d\n" (List.length regressions)
    | Json ->
        let change_json ((s, n, m, va, vb) as c) =
          Msts.Json.Obj
            [
              ("section", Msts.Json.String s);
              ("name", Msts.Json.String n);
              ("metric", Msts.Json.String m);
              ("baseline", Msts.Json.Int va);
              ("candidate", Msts.Json.Int vb);
              ("regression", Msts.Json.Bool (regression c));
            ]
        in
        emit_json
          (Msts.Json.Obj
             [
               ("baseline", Msts.Json.String file_a);
               ("candidate", Msts.Json.String file_b);
               ("threshold_pct", Msts.Json.Float threshold);
               ("changes", Msts.Json.List (List.map change_json changes));
               ("regressions", Msts.Json.Int (List.length regressions));
             ]));
    if regressions <> [] then exit 1
  in
  let doc =
    "Compare two profile JSON files: counter deltas, span call-count deltas \
     and simulated-time histogram shifts (p50/p99/max).  Exits 1 when any \
     metric regressed beyond the threshold."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ file_a $ file_b $ threshold_arg $ format_arg)

let trace_cmd =
  let doc = "Operate on saved profile JSON artefacts." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_diff_cmd ]

(* ---------- serve ---------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value & opt string "msts.sock" & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let jobs_arg =
    let doc = "Worker domains of the solve pool ($(b,0) = one per recommended core)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"J" ~doc)
  in
  let cache_arg =
    let doc = "Capacity of the shared LRU solve cache." in
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"K" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission control: queued solve requests beyond $(docv) are rejected \
       with the $(b,overloaded) error code."
    in
    Arg.(value & opt int 1024 & info [ "queue-cap" ] ~docv:"Q" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-request queue-wait deadline in milliseconds (checked at dispatch; \
       $(b,0) disables timeouts)."
    in
    Arg.(value & opt int 0 & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let batch_arg =
    let doc = "Most work units launched per dispatch round." in
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"B" ~doc)
  in
  let conn_queue_arg =
    let doc =
      "Per-connection admission control: one connection's queued requests \
       beyond $(docv) are rejected with $(b,overloaded) even when the \
       global queue has room."
    in
    Arg.(value & opt int 256 & info [ "max-queue-per-conn" ] ~docv:"Q" ~doc)
  in
  let quantum_arg =
    let doc =
      "Deficit-round-robin credit per scheduler visit: work units one \
       connection may launch per fairness turn."
    in
    Arg.(value & opt int 1 & info [ "quantum" ] ~docv:"N" ~doc)
  in
  let inflight_arg =
    let doc =
      "Most work units concurrently in flight on worker domains ($(b,0) = \
       twice the pool size)."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let telemetry_arg =
    let doc = "Stream every observability event to $(docv) as JSONL." in
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)
  in
  let ring_arg =
    let doc = "Post-mortem ring buffer size (last-N telemetry events)." in
    Arg.(value & opt int 1024 & info [ "ring" ] ~docv:"N" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the readiness and shutdown notices." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let slow_log_arg =
    let doc =
      "Retain the $(docv) slowest requests (by total latency) in the \
       $(b,stats) reply's slow-request log ($(b,0) disables it)."
    in
    Arg.(value & opt int 16 & info [ "slow-log" ] ~docv:"K" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Atomically rewrite $(docv) with the live Prometheus text exposition \
       (write to $(docv).tmp, rename) — point a node-exporter textfile \
       collector or a file-scraping agent at it."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc = "Seconds between $(b,--metrics-out) rewrites." in
    Arg.(value & opt float 1.0 & info [ "metrics-interval" ] ~docv:"S" ~doc)
  in
  let run socket jobs cache_size queue_cap timeout_ms max_batch
      max_queue_per_conn quantum max_inflight telemetry ring quiet slow_log
      metrics_out metrics_interval =
    List.iter
      (fun (what, v) ->
        if v < 1 then begin
          Printf.eprintf "error: --%s must be >= 1\n" what;
          exit 2
        end)
      [
        ("jobs", jobs);
        ("cache-size", cache_size);
        ("queue-cap", queue_cap);
        ("max-batch", max_batch);
        ("max-queue-per-conn", max_queue_per_conn);
        ("quantum", quantum);
        ("ring", ring);
      ];
    if timeout_ms < 0 then begin
      Printf.eprintf "error: --timeout-ms must be >= 0\n";
      exit 2
    end;
    if slow_log < 0 then begin
      Printf.eprintf "error: --slow-log must be >= 0\n";
      exit 2
    end;
    if max_inflight < 0 then begin
      Printf.eprintf "error: --max-inflight must be >= 0\n";
      exit 2
    end;
    if metrics_interval <= 0.0 then begin
      Printf.eprintf "error: --metrics-interval must be > 0\n";
      exit 2
    end;
    let cfg =
      {
        Msts_serve.Server.socket_path = socket;
        engine =
          {
            Msts_serve.Engine.jobs;
            cache_capacity = cache_size;
            queue_cap;
            timeout_us = timeout_ms * 1000;
            max_batch;
            slow_log;
            max_queue_per_conn;
            quantum;
            max_inflight;
          };
        telemetry;
        ring_capacity = ring;
        quiet;
        metrics_out;
        metrics_interval;
      }
    in
    exit (Msts_serve.Server.run cfg)
  in
  let doc =
    "Run the solver as a persistent daemon on a Unix-domain socket (JSONL \
     framing, versioned typed requests — see docs/API.md).  Requests are \
     served from a bounded queue on a domain pool with the shared LRU solve \
     cache; SIGTERM drains in-flight work before exiting."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_arg $ queue_arg
      $ timeout_arg $ batch_arg $ conn_queue_arg $ quantum_arg $ inflight_arg
      $ telemetry_arg $ ring_arg $ quiet_arg $ slow_log_arg $ metrics_out_arg
      $ metrics_interval_arg)

(* ---------- call ---------- *)

let call_cmd =
  let frame_arg =
    let doc =
      "The request: one JSONL frame, e.g. \
       $(b,{\"op\":\"ping\"}) or \
       $(b,{\"op\":\"schedule\",\"platform\":\"chain\\\\n1 3\\\\n2 2\",\"tasks\":4}) \
       (the platform travels as its canonical multi-line serialization, \
       newlines escaped)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let raw_arg =
    let doc = "Print the raw response frame instead of the decoded payload." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let stdin_arg =
    let doc =
      "Stream request frames from standard input over one connection, in \
       lockstep (send a frame, print its response, repeat) — scripted \
       online sessions keep their session ids valid because the \
       connection persists."
    in
    Arg.(value & flag & info [ "stdin" ] ~doc)
  in
  let print_response ~raw line =
    if raw then begin
      print_endline line;
      0
    end
    else
      match Msts.Api.response_of_line line with
      | Error e ->
          Printf.eprintf "error: unreadable response: %s\n" e.Msts.Api.message;
          2
      | Ok { Msts.Api.result = Ok payload; _ } ->
          print_endline (Msts.Json.to_string ~pretty:true payload);
          0
      | Ok { Msts.Api.result = Error e; _ } ->
          Printf.eprintf "error [%s]: %s\n"
            (Msts.Api.error_code_to_string e.Msts.Api.code)
            e.Msts.Api.message;
          1
  in
  let run socket frame raw use_stdin =
    match Msts_serve.Client.connect socket with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok client ->
        let exchange frame =
          Msts_serve.Client.send_line client frame;
          match Msts_serve.Client.recv_line client with
          | Some line -> print_response ~raw line
          | None ->
              Printf.eprintf "error: connection closed by server\n";
              2
        in
        let status =
          match (use_stdin, frame) with
          | true, Some _ | false, None ->
              Printf.eprintf
                "error: give either one REQUEST frame or --stdin\n";
              2
          | false, Some frame -> exchange frame
          | true, None ->
              let worst = ref 0 in
              (try
                 while true do
                   let line = input_line stdin in
                   if String.trim line <> "" then
                     worst := max !worst (exchange line)
                 done
               with End_of_file -> ());
              !worst
        in
        Msts_serve.Client.close client;
        if status <> 0 then exit status
  in
  let doc =
    "Send request frames to a running $(b,msts serve) daemon and print the \
     responses — the decoded $(b,ok) payload (pretty JSON, byte-identical \
     to the matching subcommand's $(b,--format=json) output), or the raw \
     frame with $(b,--raw).  One positional frame, or a JSONL stream over \
     a single connection with $(b,--stdin) (how scripted online sessions \
     talk to the daemon).  Exits 1 on a structured error response."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(const run $ socket_arg $ frame_arg $ raw_arg $ stdin_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let watch_arg =
    let doc = "Poll the daemon repeatedly instead of printing one snapshot." in
    Arg.(value & flag & info [ "w"; "watch" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls with $(b,--watch)." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc =
      "Stop after $(docv) polls with $(b,--watch) ($(b,0) = poll forever)."
    in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let metrics_arg =
    let doc =
      "Print the Prometheus text exposition (the $(b,metrics) control op) \
       instead of the $(b,stats) JSON."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let run socket watch interval count metrics =
    if interval <= 0.0 then begin
      Printf.eprintf "error: --interval must be > 0\n";
      exit 2
    end;
    if count < 0 then begin
      Printf.eprintf "error: --count must be >= 0\n";
      exit 2
    end;
    match Msts_serve.Client.connect socket with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok client ->
        let frame =
          if metrics then {|{"op":"metrics"}|} else {|{"op":"stats"}|}
        in
        let print_payload payload =
          (* The metrics payload wraps the exposition; print the body raw
             so the output pipes straight into promtool-style checkers. *)
          match payload with
          | Msts.Json.Obj fields when metrics -> (
              match List.assoc_opt "body" fields with
              | Some (Msts.Json.String body) -> print_string body
              | _ -> print_endline (Msts.Json.to_string ~pretty:true payload))
          | _ -> print_endline (Msts.Json.to_string ~pretty:true payload)
        in
        let once () =
          Msts_serve.Client.send_line client frame;
          match Msts_serve.Client.recv_line client with
          | None ->
              Printf.eprintf "error: connection closed by server\n";
              2
          | Some line -> (
              match Msts.Api.response_of_line line with
              | Error e ->
                  Printf.eprintf "error: unreadable response: %s\n"
                    e.Msts.Api.message;
                  2
              | Ok { Msts.Api.result = Ok payload; _ } ->
                  print_payload payload;
                  0
              | Ok { Msts.Api.result = Error e; _ } ->
                  Printf.eprintf "error [%s]: %s\n"
                    (Msts.Api.error_code_to_string e.Msts.Api.code)
                    e.Msts.Api.message;
                  1)
        in
        let rec loop i =
          let status = once () in
          if status <> 0 then status
          else if (not watch) || (count > 0 && i + 1 >= count) then 0
          else begin
            flush stdout;
            Unix.sleepf interval;
            print_endline "---";
            loop (i + 1)
          end
        in
        let status = loop 0 in
        Msts_serve.Client.close client;
        if status <> 0 then exit status
  in
  let doc =
    "Show a running $(b,msts serve) daemon's live counters: one $(b,stats) \
     snapshot (pretty JSON — queue depth, served/rejected totals, the \
     per-request queue-wait/solve/encode latency breakdown and the \
     slow-request log), polled repeatedly with $(b,--watch) (snapshots \
     separated by $(b,---)), or the Prometheus text exposition with \
     $(b,--metrics).  Exits 2 when the daemon is unreachable."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ socket_arg $ watch_arg $ interval_arg $ count_arg
      $ metrics_arg)

(* ---------- online ---------- *)

let online_cmd =
  let script_arg =
    let doc =
      "Read request frames from $(docv) instead of standard input (one \
       JSONL frame per line, blank lines and $(b,#) comments ignored)."
    in
    Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let run script =
    (* The same Msts_online.Service the daemon engine embeds, driven
       locally: transcripts are byte-identical to a daemon session. *)
    let svc = Msts_online.Service.create () in
    let step line =
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then ()
      else
        let response =
          match Msts.Api.request_or_rejection line with
          | Error rejection -> rejection
          | Ok ({ Msts.Api.id; trace; op }, _) ->
              let result =
                if Msts_online.Service.handles op then
                  Msts_online.Service.exec svc op
                else
                  Error
                    (Msts.Api.error Msts.Api.Bad_request
                       (Printf.sprintf
                          "%s is not an online operation; use msts call"
                          (Msts.Api.op_name op)))
              in
              { Msts.Api.id; trace; result }
        in
        print_string (Msts.Api.response_to_line response)
    in
    let each ic = try
        while true do
          step (input_line ic)
        done
      with End_of_file -> ()
    in
    match script with
    | None -> each stdin
    | Some path -> In_channel.with_open_text path each
  in
  let doc =
    "Run an anytime-scheduling session locally: read $(b,online-*) request \
     frames (JSONL, from $(b,--script) or standard input), apply them to an \
     in-process session registry, and print one response frame per request \
     — tasks arrive over time, the solver streams $(b,placed) / \
     $(b,displaced) / $(b,rejected) / $(b,frozen) deltas, and the plan's \
     executed prefix is immutable.  The exact frames a $(b,msts serve) \
     daemon would produce for the same requests (docs/ONLINE.md)."
  in
  Cmd.v (Cmd.info "online" ~doc) Term.(const run $ script_arg)

(* ---------- dot ---------- *)

let dot_cmd =
  let run path output = emit output (Msts.Dot.of_platform (read_platform path)) in
  let doc = "Export the platform as a Graphviz DOT graph." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ platform_arg $ output_arg)

let main_cmd =
  let doc = "optimal master-slave tasking on heterogeneous chains and spiders" in
  let info = Cmd.info "msts" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd;
      schedule_cmd;
      deadline_cmd;
      validate_cmd;
      check_cmd;
      explain_cmd;
      bounds_cmd;
      throughput_cmd;
      pull_cmd;
      faults_cmd;
      batch_cmd;
      metrics_cmd;
      profile_cmd;
      report_cmd;
      serve_cmd;
      call_cmd;
      stats_cmd;
      online_cmd;
      trace_cmd;
      tree_cmd;
      dot_cmd;
    ]

let () =
  try exit (Cmd.eval ~catch:false main_cmd) with
  | Sys_error msg ->
      (* unwritable -o/--svg/--plan-out/--csv/--trace-out targets etc. *)
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | e ->
      Printf.eprintf "msts: internal error, uncaught exception:\n      %s\n"
        (Printexc.to_string e);
      exit 125
