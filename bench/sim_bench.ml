(* sim-scaling: the simulate-and-audit path of the daemon's sim-check
   traffic, call by call and request kind by request kind, on the four
   spiders perfbench's sim-check workload draws from (3 legs, depth <= 2,
   default profile, seeds 300..303).

     dune exec bench/main.exe -- sim-scaling

   Each row is the mean over the four platforms of one call's µs and
   minor words, per the unit that call scales with: engine events for the
   executors, trace events for the recorder, the checker and the planned
   expansion, tasks for the feasibility check and the replanner, one
   request for the request kinds (answered by Api.respond over a warm
   solve cache, as in the daemon).  Rows go to BENCH_sim-scaling.json
   under "results", keys "calls" and "requests".  Minor words do not
   depend on timing, so they are gated: each call must stay under its
   bound or the stage fails.  Times are reported, not gated. *)

module Trace = Msts.Trace
module Netsim = Msts.Netsim

let tasks = 60
let fault_events = 6

let platforms =
  lazy
    (Array.init 4 (fun k ->
         Msts.Generator.spider (Msts.Prng.create (300 + k))
           Msts.Generator.default_profile ~legs:3 ~max_depth:2))

(* The number of [counter] events one run of [f] counts. *)
let counted counter f =
  let mem = Msts.Obs.Memory.create () in
  Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () -> ignore (f ()));
  Msts.Obs.Memory.counter mem counter

let record f =
  let r = Trace.Recorder.create () in
  ignore (Trace.with_recorder r f);
  Trace.recorded r

(* Gates on minor words per unit.  The first four are the allocation
   targets of the flat pipeline; the others hold each remaining call at
   about 1.5x what it measured when the gate was set. *)
type call = {
  name : string;
  unit_ : string;
  gate : float;
  per : Msts.Spider.t -> (unit -> unit) * int; (* the call, its unit count *)
}

let plan_of spider = Msts.Spider_algorithm.schedule_tasks spider tasks

let fault_trace spider plan =
  Msts.Fault.random (Msts.Prng.create 7) spider ~events:fault_events
    ~horizon:(Msts.Spider_schedule.makespan plan)

let calls =
  [
    {
      name = "execute";
      unit_ = "engine event";
      gate = 10.;
      per =
        (fun spider ->
          let plan = Msts.Plan.Spider (plan_of spider) in
          let run () = ignore (Netsim.execute plan) in
          (run, counted "engine.events" run));
    };
    {
      name = "recorder";
      unit_ = "trace event";
      gate = 1.;
      per =
        (fun spider ->
          let events =
            Trace.events (record (fun () -> Netsim.execute (Msts.Plan.Spider (plan_of spider))))
          in
          let run () =
            ignore
              (record (fun () ->
                   List.iter
                     (fun { Trace.time; task; kind; _ } -> Trace.emit ~time ~task kind)
                     events))
          in
          (run, List.length events));
    };
    {
      name = "trace_check";
      unit_ = "trace event";
      gate = 1.;
      per =
        (fun spider ->
          let tr = record (fun () -> Netsim.execute (Msts.Plan.Spider (plan_of spider))) in
          ((fun () -> ignore (Trace.check ~require_nonnegative:true tr)), Trace.length tr));
    };
    {
      name = "spider_check";
      unit_ = "task";
      gate = 4.;
      per =
        (fun spider ->
          let plan = plan_of spider in
          ( (fun () -> ignore (Msts.Spider_schedule.check ~require_nonnegative:true plan)),
            tasks ));
    };
    {
      name = "of_plan";
      unit_ = "trace event";
      gate = 7.;
      per =
        (fun spider ->
          let plan = Msts.Plan.Spider (plan_of spider) in
          ((fun () -> ignore (Trace.of_plan plan)), Trace.length (Trace.of_plan plan)));
    };
    {
      name = "faults_recorded";
      unit_ = "engine event";
      gate = 22.;
      per =
        (fun spider ->
          let plan = plan_of spider in
          let trace = fault_trace spider plan in
          let run () =
            ignore
              (record (fun () ->
                   Netsim.replay_under_faults ~max_events:1_000_000 ~trace plan))
          in
          (run, counted "engine.events" run));
    };
    {
      name = "replan";
      unit_ = "task";
      gate = 1500.;
      per =
        (fun spider ->
          let plan = plan_of spider in
          let trace = fault_trace spider plan in
          ((fun () -> ignore (Msts.Replan.replay ~trace plan)), tasks));
    };
  ]

(* The request kinds of the sim-check mix, at the middle of its sizes. *)
let requests spider =
  let platform = Msts.Platform_format.Spider_platform spider in
  let problem = Msts.Solve.problem ~tasks platform in
  let profile workload =
    Msts.Api.Profile
      { platform; tasks = 45; deadline = None; workload; seed = 11; events = 4 }
  in
  [
    ("check", Msts.Api.Check { problem; trace = true; seed = 11; events = 6 });
    ("report", Msts.Api.Report { problem; planned = false });
    ("profile_execute", profile Msts.Api.Execute);
    ("profile_pull", profile Msts.Api.Pull);
    ("profile_faults", profile Msts.Api.Faults);
  ]

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sim_scaling () =
  let spiders = Array.to_list (Lazy.force platforms) in
  let call_rows =
    List.map
      (fun c ->
        let samples =
          List.map
            (fun spider ->
              let run, units = c.per spider in
              let us, words = Timing.per_call ~iters:200 run in
              let units = float_of_int (max 1 units) in
              (us /. units, words /. units, units))
            spiders
        in
        ( c,
          mean (List.map (fun (u, _, _) -> u) samples),
          mean (List.map (fun (_, w, _) -> w) samples),
          mean (List.map (fun (_, _, n) -> n) samples) ))
      calls
  in
  let cache = Msts.Batch.cache ~capacity:64 in
  let solver problems =
    Msts.Batch.run ~jobs:1 ~cache ~solve:Msts.Api.guarded_solve problems
  in
  let request_rows =
    List.map
      (fun (name, _) ->
        let samples =
          List.map
            (fun spider ->
              let op = List.assoc name (requests spider) in
              let req = { Msts.Api.id = None; trace = None; op } in
              Timing.per_call ~iters:100 (fun () ->
                  match Msts.Api.respond ~solver req with
                  | { Msts.Api.result = Ok _; _ } -> ()
                  | _ -> failwith ("sim-scaling: the " ^ name ^ " request failed")))
            spiders
        in
        (name, mean (List.map fst samples), mean (List.map snd samples)))
      (requests (List.hd spiders))
  in
  let table =
    Msts.Table.create ~title:"simulate-and-audit calls (sim-check platforms, n=60)"
      ~columns:[ "call"; "per"; "units"; "us/unit"; "words/unit"; "gate" ]
  in
  List.iter
    (fun (c, us, words, units) ->
      Msts.Table.add_row table
        [
          c.name;
          c.unit_;
          Printf.sprintf "%.0f" units;
          Printf.sprintf "%.3f" us;
          Printf.sprintf "%.2f" words;
          Printf.sprintf "<= %.0f" c.gate;
        ])
    call_rows;
  Msts.Table.print table;
  let rtable =
    Msts.Table.create ~title:"sim-check request kinds (Api.respond, warm cache)"
      ~columns:[ "request"; "us"; "minor words" ]
  in
  List.iter
    (fun (name, us, words) ->
      Msts.Table.add_row rtable
        [ name; Printf.sprintf "%.1f" us; Printf.sprintf "%.0f" words ])
    request_rows;
  Msts.Table.print rtable;
  let json =
    Msts.Json.Obj
      [
        ("experiment", Msts.Json.String "sim-scaling");
        ("tasks", Msts.Json.Int tasks);
        ( "calls",
          Msts.Json.Obj
            (List.map
               (fun (c, us, words, units) ->
                 ( c.name,
                   Msts.Json.Obj
                     [
                       ("per", Msts.Json.String c.unit_);
                       ("units", Msts.Json.Float units);
                       ("us_per_unit", Msts.Json.Float us);
                       ("minor_words_per_unit", Msts.Json.Float words);
                       ("gate_minor_words_per_unit", Msts.Json.Float c.gate);
                     ] ))
               call_rows) );
        ( "requests",
          Msts.Json.Obj
            (List.map
               (fun (name, us, words) ->
                 ( name,
                   Msts.Json.Obj
                     [
                       ("us_per_request", Msts.Json.Float us);
                       ("minor_words_per_request", Msts.Json.Float words);
                     ] ))
               request_rows) );
      ]
  in
  Timing.stage_results := Some json;
  List.iter
    (fun (c, _, words, _) ->
      if words > c.gate then
        failwith
          (Printf.sprintf
             "sim-scaling: %s allocates %.2f minor words per %s, gate is %.0f"
             c.name words c.unit_ c.gate))
    call_rows

let all : (string * string * (unit -> unit)) list =
  [
    ( "sim-scaling",
      "simulate-and-audit calls and sim-check request kinds: us and minor words (gated)",
      sim_scaling );
  ]
