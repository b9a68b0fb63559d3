(* fuzz-smoke: a deterministic, bounded slice of the trace-invariant fuzz
   campaign, sized for CI.  test/test_trace.ml runs the full QCheck
   harness (500+ interleavings); this stage replays a fixed seed so its
   output — including the `invariant violations: 0` line CI greps for —
   is byte-stable across runs. *)

let smoke () =
  let rng = Msts.Prng.create 20030815 in
  let runs = 120 in
  let violations = ref 0 in
  let events_total = ref 0 in
  let aborts = ref 0 in
  let returns = ref 0 in
  for i = 1 to runs do
    let spider =
      Msts.Generator.spider rng Msts.Generator.default_profile ~legs:3
        ~max_depth:3
    in
    let n = 1 + Msts.Prng.int rng 8 in
    let plan = Msts.Spider_algorithm.schedule_tasks spider n in
    let horizon = Msts.Spider_schedule.makespan plan + 5 in
    let trace =
      Msts.Fault.random rng spider ~events:(Msts.Prng.int rng 5) ~horizon
    in
    let recorder = Msts.Trace.Recorder.create () in
    let report =
      Msts.Trace.with_recorder recorder (fun () ->
          if i mod 2 = 0 then
            Msts.Netsim.replay_under_faults ~max_events:500_000 ~trace plan
          else
            Msts.Netsim.pull_under_faults ~max_events:500_000 ~trace spider
              ~tasks:n)
    in
    let tr = Msts.Trace.recorded recorder in
    events_total := !events_total + Msts.Trace.length tr;
    aborts := !aborts + report.Msts.Netsim.aborted_ops;
    returns := !returns + report.Msts.Netsim.returned_tasks;
    match Msts.Trace.check ~require_nonnegative:true tr with
    | [] -> ()
    | viols ->
        incr violations;
        print_endline (Msts.Trace.report tr viols)
  done;
  Printf.printf "fuzz-smoke: %d runs, %d trace events, %d aborts, %d returns\n"
    runs !events_total !aborts !returns;
  Printf.printf "invariant violations: %d\n" !violations;
  assert (!violations = 0);
  (* the checker must keep its teeth: two tasks emitted through the port
     at the same instant are rejected with a localized one-port violation *)
  let spider =
    Msts.Spider.make
      [| Msts.Chain.of_pairs [ (2, 3) ]; Msts.Chain.of_pairs [ (3, 4) ] |]
  in
  let bad =
    Msts.Spider_schedule.of_columns spider ~legs:[| 1; 2 |] ~starts:[| 2; 3 |]
      ~offsets:[| 0; 1; 2 |] ~emissions:[| 0; 0 |]
  in
  let bad_tr = Msts.Trace.of_plan (Msts.Plan.Spider bad) in
  let viols = Msts.Trace.check bad_tr in
  assert (List.exists (fun v -> v.Msts.Trace.invariant = "one-port") viols);
  assert (
    List.for_all
      (fun v -> Msts.Trace.length (Msts.Trace.localize bad_tr v) > 0)
      viols);
  print_endline "corrupted plan rejected: one-port violation localized"

let all : (string * string * (unit -> unit)) list =
  [
    ( "fuzz-smoke",
      "bounded trace-invariant fuzz campaign over fault runs (CI)",
      smoke );
  ]
