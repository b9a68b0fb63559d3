(* The online anytime scheduler's two performance contracts, gated:

     online        amortized O(p) work per arrival — the fast kernel's
                   candidate scans per submitted task equal the processor
                   count exactly, independent of how many tasks are
                   already placed — and a zero-allocation steady state
                   (no minor-heap words per arrival once the session's
                   buffers are preallocated and telemetry is off).
                   Results and counter profiles land in BENCH_online.json.
     online-smoke  end-to-end session lifecycle (submit / advance /
                   extend / degrade / plan) through the same
                   Msts_online.Service the daemon uses, plus a scripted
                   driver run whose frozen-prefix trace must satisfy the
                   Definition-1 invariants.  Cheap enough for every CI
                   run; writes BENCH_online-smoke.json.

   Violations fail the experiment (failwith), so CI gates on exit
   status, not on eyeballing the JSON. *)

module Online = Msts_online.Online
module Driver = Msts_online.Driver
module Service = Msts_online.Service
module Obs = Msts.Obs
module Json = Msts.Json

let chain_with ~p =
  Msts.Generator.chain (Msts.Prng.create (100 + p)) Msts.Generator.default_profile ~p

(* Candidate scans per arrival, measured over [n] submissions on a
   [p]-processor chain under a private sink (the horizon is generous
   enough that every arrival is placed, so each one is a single sweep). *)
let scans_per_arrival ~p ~n =
  let chain = chain_with ~p in
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      let o =
        Online.create ~capacity:n chain
          ~deadline:(200 * n)
      in
      let placed = Online.submit o n in
      if placed <> n then
        failwith
          (Printf.sprintf "online: only %d of %d arrivals fit at p=%d" placed n p));
  let scans = Obs.Memory.counter mem "chain.candidate_scans" in
  if scans mod n <> 0 then
    failwith
      (Printf.sprintf "online: %d scans not divisible by %d arrivals (p=%d)"
         scans n p);
  scans / n

let run_scaling () =
  Printf.printf "%6s %8s %16s %s\n" "p" "n" "scans/arrival" "verdict";
  List.iter
    (fun p ->
      let small = scans_per_arrival ~p ~n:512 in
      let large = scans_per_arrival ~p ~n:1024 in
      (* O(p) per arrival, exactly: the fast kernel probes each processor
         once.  Doubling n must not change the per-arrival cost at all —
         that is the whole point of the incremental construction. *)
      if small <> p then
        failwith
          (Printf.sprintf "online: %d scans per arrival at p=%d (want %d)"
             small p p);
      if large <> small then
        failwith
          (Printf.sprintf
             "online: per-arrival cost grew with n at p=%d (%d -> %d)" p small
             large);
      Printf.printf "%6d %8d %16d exactly p, flat in n\n" p 1024 large)
    [ 2; 4; 8; 16; 32 ]

(* Two back-to-back reads calibrate the boxing cost of Gc.minor_words
   itself (it returns a float). *)
let calibrate () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let run_allocation () =
  (* Telemetry off: the claim is about the scheduler's own hot path. *)
  Obs.set_sink None;
  let n = 4096 in
  let chain = chain_with ~p:8 in
  let o =
    Online.create ~capacity:n chain ~deadline:(200 * n)
  in
  ignore (Online.submit o 64) (* warm-up *);
  let baseline = calibrate () in
  let before = Gc.minor_words () in
  let placed = Online.submit o (n - 64) in
  let after = Gc.minor_words () in
  let extra = after -. before -. baseline in
  if placed <> n - 64 then
    failwith (Printf.sprintf "online: steady state rejected %d arrivals" (n - 64 - placed));
  (* One boxed accumulator per submit call is amortized over the batch;
     nothing may scale with the arrival count. *)
  if extra > 64.0 then
    failwith
      (Printf.sprintf
         "online: steady state allocated %.0f minor words over %d arrivals"
         extra (n - 64));
  Printf.printf "steady state: %d arrivals, %.0f minor words beyond calibration\n"
    (n - 64) extra

let run_online () =
  run_scaling ();
  run_allocation ()

(* ---------- smoke ---------- *)

let expect_ok = function
  | Ok payload -> payload
  | Error e ->
      failwith
        (Printf.sprintf "online-smoke: %s: %s"
           (Msts.Api.error_code_to_string e.Msts.Api.code)
           e.Msts.Api.message)

let int_field name json =
  match Json.member name json with
  | Some (Json.Int v) -> v
  | _ -> failwith (Printf.sprintf "online-smoke: missing %s field" name)

let run_smoke () =
  let svc = Service.create () in
  let platform =
    Msts.Platform_format.Chain_platform (Msts.Chain.of_pairs [ (2, 3); (3, 5) ])
  in
  let session =
    int_field "session"
      (expect_ok
         (Service.exec svc
            (Msts.Api.Online_open { platform; deadline = 14; capacity = 0 })))
  in
  let placed =
    int_field "placed"
      (expect_ok (Service.exec svc (Msts.Api.Online_submit { session; tasks = 6 })))
  in
  if placed <> 5 then failwith "online-smoke: figure-2 session should place 5";
  let frozen =
    int_field "frozen"
      (expect_ok (Service.exec svc (Msts.Api.Online_advance { session; time = 1 })))
  in
  if frozen <> 1 then failwith "online-smoke: frontier 1 should freeze 1";
  (match Service.exec svc (Msts.Api.Online_extend { session; deadline = 15 }) with
  | Error _ -> ()
  | Ok _ -> failwith "online-smoke: a one-tick extension cannot clear the prefix");
  ignore
    (expect_ok (Service.exec svc (Msts.Api.Online_extend { session; deadline = 40 })));
  (* processor 2 holds no frozen placement at frontier 1 *)
  ignore
    (expect_ok
       (Service.exec svc
          (Msts.Api.Online_degrade { session; at = 2; work_factor = 2 })));
  let plan_doc =
    expect_ok (Service.exec svc (Msts.Api.Online_plan { session }))
  in
  if int_field "tasks" plan_doc <> 5 then
    failwith "online-smoke: plan lost tasks across extend/degrade";
  ignore (expect_ok (Service.exec svc (Msts.Api.Online_close { session })));
  (* The scripted driver: arrivals, an extension and a degradation on the
     simulator clock; the frozen prefix's trace must be invariant-clean. *)
  let recorder = Msts.Trace.Recorder.create () in
  let outcome =
    Msts.Trace.with_recorder recorder (fun () ->
        Driver.run
          (Msts.Chain.of_pairs [ (2, 3); (3, 5) ])
          ~deadline:30
          [
            { Driver.at = 0; action = Driver.Submit 4 };
            { Driver.at = 6; action = Driver.Extend 60 };
            { Driver.at = 8; action = Driver.Submit 3 };
            { Driver.at = 12; action = Driver.Degrade { at = 2; work_factor = 2 } };
          ])
  in
  (match Msts.Trace.check ~require_nonnegative:true (Msts.Trace.recorded recorder) with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "online-smoke: executed prefix violates Definition 1:\n%s"
           (Msts.Trace.report (Msts.Trace.recorded recorder) vs)));
  if outcome.Driver.frozen <> outcome.Driver.placed then
    failwith "online-smoke: driver left revisable tasks after the deadline";
  (match Msts.Plan.check ~require_nonnegative:true outcome.Driver.plan with
  | [] -> ()
  | problems ->
      failwith
        (Printf.sprintf "online-smoke: infeasible final plan: %s"
           (String.concat "; " problems)));
  Printf.printf
    "session lifecycle ok; driver: %d placed, %d frozen, %d refusals, trace clean\n"
    outcome.Driver.placed outcome.Driver.frozen
    (List.length outcome.Driver.refusals)

let all =
  [
    ( "online",
      "anytime scheduler: amortized O(p) per arrival, zero-allocation steady state",
      run_online );
    ( "online-smoke",
      "anytime scheduler end-to-end: session lifecycle + frozen-prefix trace audit",
      run_smoke );
  ]
