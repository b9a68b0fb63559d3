(* The online anytime scheduler: differential byte-identity to batch
   solves over random arrival orders, freezing semantics, the admission
   mechanism (extension re-opens the session), replans under degradation,
   the zero-allocation arrival hot path, and the trace-audited driver
   campaign where arrivals, faults and replans interleave. *)

open Helpers
module Online = Msts_online.Online
module Driver = Msts_online.Driver
module Service = Msts_online.Service
module Incremental = Msts.Chain_incremental
module Api = Msts.Api
module Json = Msts.Json

let plan_feasible plan =
  match Msts.Plan.check ~require_nonnegative:true plan with
  | [] -> true
  | problems ->
      QCheck.Test.fail_reportf "infeasible plan: %s" (String.concat "; " problems)

(* ---------- differential: online = batch, and = the reference ---------- *)

(* Tasks are identical, so an "arrival order" is the sequence of batch
   sizes the session sees.  500+ random orders across the two batch
   sides. *)
let arrivals_gen =
  QCheck.Gen.(
    triple
      (chain_gen ~max_p:4 ())
      (int_range 0 80)
      (list_size (int_range 1 12) (int_range 0 6)))

let arrivals_print (chain, deadline, batches) =
  Printf.sprintf "%s, d=%d, batches=[%s]"
    (Msts.Chain.to_string chain)
    deadline
    (String.concat ";" (List.map string_of_int batches))

(* The batch side is the library's deadline solve, or the frozen
   paper-literal construction in Kernel_reference, so the session is also
   checked against a construction it does not run on. *)
let library_batch ~max_tasks chain ~deadline =
  Msts.Chain_deadline.schedule ~max_tasks chain ~deadline

let reference_batch ~max_tasks chain ~deadline =
  Kernel_reference.deadline_schedule ~max_tasks chain ~deadline

let online_matches_batch ~name batch_schedule =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name
       (QCheck.make ~print:arrivals_print arrivals_gen)
       (fun (chain, deadline, batches) ->
         let o = Online.create chain ~deadline in
         List.iter (fun b -> ignore (Online.submit o b)) batches;
         let total = List.fold_left ( + ) 0 batches in
         let batch = batch_schedule ~max_tasks:total chain ~deadline in
         Msts.Plan.equal (Online.plan o) (Msts.Plan.Chain batch)
         && Online.placed o + Online.rejected o = total))

(* With nothing frozen, a deadline extension is an exact uniform shift:
   interleaving submits and extends still lands byte-identical to one
   batch solve at the final deadline. *)
let script_gen =
  QCheck.Gen.(
    triple
      (chain_gen ~max_p:4 ())
      (int_range 0 40)
      (list_size (int_range 1 10)
         (oneof
            [
              map (fun n -> `Submit n) (int_range 0 5);
              map (fun d -> `Extend d) (int_range 0 20);
            ])))

let script_print (chain, d0, script) =
  Printf.sprintf "%s, d0=%d, script=[%s]"
    (Msts.Chain.to_string chain)
    d0
    (String.concat ";"
       (List.map
          (function
            | `Submit n -> Printf.sprintf "submit %d" n
            | `Extend d -> Printf.sprintf "extend +%d" d)
          script))

let extends_match_batch ~name batch_schedule =
  to_alcotest
    (QCheck.Test.make ~count:150 ~name
       (QCheck.make ~print:script_print script_gen)
       (fun (chain, d0, script) ->
         let o = Online.create chain ~deadline:d0 in
         let d = ref d0 in
         List.iter
           (function
             | `Submit n -> ignore (Online.submit o n)
             | `Extend inc -> (
                 d := !d + inc;
                 match Online.extend o ~deadline:!d with
                 | Ok _ -> ()
                 | Error msg ->
                     QCheck.Test.fail_reportf
                       "extend refused with nothing frozen: %s" msg))
           script;
         let batch =
           batch_schedule ~max_tasks:(Online.placed o) chain ~deadline:!d
         in
         Msts.Plan.equal (Online.plan o) (Msts.Plan.Chain batch)))

(* ---------- freezing ---------- *)

let emission (e : Schedule_reference.Schedule.entry) = e.comms.(0)

let frozen_entries o =
  let ids, sched = Online.frozen_since o 0 in
  Array.mapi (fun j id -> (id, Schedule_reference.chain_row sched (j + 1))) ids

let freeze_gen =
  QCheck.Gen.(
    triple
      (chain_gen ~min_p:1 ~max_p:4 ())
      (pair (int_range 1 80) (int_range 0 80))
      (pair (int_range 0 10) (int_range 0 10)))

let freeze_print (chain, (deadline, time), (n1, n2)) =
  Printf.sprintf "%s, d=%d, t=%d, n1=%d, n2=%d"
    (Msts.Chain.to_string chain)
    deadline time n1 n2

let freezing_partitions_the_plan =
  to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"frozen placements sit strictly behind the frontier, immutably"
       (QCheck.make ~print:freeze_print freeze_gen)
       (fun (chain, (deadline, time), (n1, n2)) ->
         let o = Online.create chain ~deadline in
         ignore (Online.submit o n1);
         let newly = Online.advance o ~time in
         let before = frozen_entries o in
         Array.iter
           (fun (_, e) ->
             if emission e >= Online.frontier o then
               QCheck.Test.fail_reportf "frozen emission %d >= frontier %d"
                 (emission e) (Online.frontier o))
           before;
         (* later placements never re-enter the frozen region *)
         ignore (Online.submit o n2);
         ignore (Online.advance o ~time:(time / 2)) (* monotone: no-op *);
         newly = Array.length before
         && Online.frontier o = time
         && frozen_entries o = before
         && plan_feasible (Online.plan o)
         && plan_feasible (Msts.Plan.Chain (Online.frozen_schedule o))))

(* Once anything is frozen the region between frontier and deadline is
   spoken for: new arrivals are rejected until the deadline is extended —
   extension is the admission mechanism. *)
let admission_reopens_after_extend () =
  let o = Online.create figure2_chain ~deadline:14 in
  Alcotest.(check int) "five fit in 14" 5 (Online.submit o 5);
  ignore (Online.advance o ~time:1);
  Alcotest.(check bool) "something froze" true (Online.frozen o > 0);
  Alcotest.(check int) "frozen region admits nothing" 0 (Online.submit o 3);
  Alcotest.(check int) "three rejections" 3 (Online.rejected o);
  let before = frozen_entries o in
  (match Online.extend o ~deadline:60 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "big extension refused: %s" msg);
  Alcotest.(check bool) "extension re-opens admission" true
    (Online.submit o 3 > 0);
  Alcotest.(check bool) "frozen prefix untouched" true
    (before = frozen_entries o);
  Alcotest.(check bool) "combined plan stays feasible" true
    (Msts.Plan.check ~require_nonnegative:true (Online.plan o) = [])

let shrinking_deadline_refused () =
  let o = Online.create figure2_chain ~deadline:20 in
  match Online.extend o ~deadline:19 with
  | Ok _ -> Alcotest.fail "shrink accepted"
  | Error msg ->
      Alcotest.(check bool) "message carries the prefix" true
        (String.length msg >= 12 && String.sub msg 0 12 = "Msts.Online.")

(* A refused too-small extension names the minimal acceptable deadline,
   and extending to exactly that deadline succeeds.  Figure 2 at deadline
   14 places five tasks with emissions 9,6,4,2,0; the frontier at 5
   freezes three of them (the processor-2 task runs to 14, so the barrier
   is 14) and leaves the two latest processor-1 tasks revisable — an
   8-wide block that needs the deadline at 14 + 8 = 22. *)
let refusal_names_minimal_deadline () =
  let o = Online.create figure2_chain ~deadline:14 in
  Alcotest.(check int) "five placed" 5 (Online.submit o 5);
  Alcotest.(check int) "three freeze at time 5" 3 (Online.advance o ~time:5);
  let before = frozen_entries o in
  let minimal =
    match Online.extend o ~deadline:15 with
    | Ok _ -> Alcotest.fail "one tick cannot clear the frozen prefix"
    | Error msg -> (
        (* "... extend to at least %d" *)
        match String.rindex_opt msg ' ' with
        | Some i ->
            int_of_string (String.sub msg (i + 1) (String.length msg - i - 1))
        | None -> Alcotest.failf "unparseable refusal: %s" msg)
  in
  Alcotest.(check int) "minimal deadline is 22" 22 minimal;
  (match Online.extend o ~deadline:(minimal - 1) with
  | Ok _ -> Alcotest.fail "the bound is not tight"
  | Error _ -> ());
  match Online.extend o ~deadline:minimal with
  | Error msg -> Alcotest.failf "minimal deadline still refused: %s" msg
  | Ok displaced ->
      Alcotest.(check int) "both unfrozen tasks moved" 2 displaced;
      Alcotest.(check bool) "frozen prefix untouched" true
        (before = frozen_entries o);
      Alcotest.(check bool) "plan feasible at the minimal deadline" true
        (Msts.Plan.check ~require_nonnegative:true (Online.plan o) = [])

(* ---------- degradation (fault rendezvous) ---------- *)

let degrade_gen =
  QCheck.Gen.(
    triple
      (chain_gen ~min_p:2 ~max_p:4 ())
      (pair (int_range 10 80) (int_range 0 20))
      (pair (int_range 0 8) (int_range 2 4)))

let degrade_print (chain, (deadline, time), (n, wf)) =
  Printf.sprintf "%s, d=%d, t=%d, n=%d, wf=%d"
    (Msts.Chain.to_string chain)
    deadline time n wf

let degrade_replaces_only_unfrozen =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"degradation re-places the unfrozen suffix on the slower chain"
       (QCheck.make ~print:degrade_print degrade_gen)
       (fun (chain, (deadline, time), (n, wf)) ->
         let o = Online.create chain ~deadline in
         ignore (Online.submit o n);
         ignore (Online.advance o ~time);
         let before = frozen_entries o in
         let unfrozen = Online.placed o - Online.frozen o in
         (* pick a processor with no frozen placements, if any *)
         let p = Msts.Chain.length chain in
         let holds at =
           Array.exists (fun (_, (e : Schedule_reference.Schedule.entry)) -> e.proc = at) before
         in
         let free_proc =
           List.find_opt (fun at -> not (holds at)) (List.init p (fun i -> i + 1))
         in
         match free_proc with
         | None -> true (* every processor executed something: nothing to test *)
         | Some at -> (
             match Online.degrade o ~at ~work_factor:wf with
             | Error msg -> QCheck.Test.fail_reportf "degrade refused: %s" msg
             | Ok { Online.replaced; extended_by; deadline = d' } ->
                 replaced = unfrozen
                 && extended_by >= 0
                 && d' = Online.deadline o
                 && frozen_entries o = before
                 && Msts.Chain.work (Online.chain o) at
                    = wf * Msts.Chain.work chain at
                 && plan_feasible (Online.plan o))))

let degrade_refusals () =
  let o = Online.create figure2_chain ~deadline:14 in
  ignore (Online.submit o 5);
  ignore (Online.advance o ~time:14);
  let committed = Msts.Schedule.proc (snd (Online.frozen_since o 0)) 1 in
  (match Online.degrade o ~at:committed ~work_factor:2 with
  | Ok _ -> Alcotest.fail "degraded a processor with frozen placements"
  | Error msg ->
      Alcotest.(check bool) "refusal names the commitment" true
        (String.length msg >= 12 && String.sub msg 0 12 = "Msts.Online."));
  (match Online.degrade o ~at:0 ~work_factor:2 with
  | Ok _ -> Alcotest.fail "accepted processor 0"
  | Error _ -> ());
  match Online.degrade o ~at:1 ~work_factor:0 with
  | Ok _ -> Alcotest.fail "accepted work_factor 0"
  | Error _ -> ()

(* ---------- the zero-allocation arrival hot path ---------- *)

(* Gc.minor_words boxes its float result, so two back-to-back reads
   calibrate the cost of the measurement itself. *)
let calibrate () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let incremental_arrivals_allocation_free () =
  let chain = Msts.Chain.of_pairs [ (1, 3); (2, 2); (1, 4) ] in
  let n = 256 in
  let t =
    Incremental.create ~capacity:n chain
      ~horizon:1_000_000
  in
  ignore (Incremental.add_task t) (* warm-up *);
  let baseline = calibrate () in
  let before = Gc.minor_words () in
  for _ = 2 to n do
    ignore (Incremental.add_task t)
  done;
  let after = Gc.minor_words () in
  let extra = after -. before -. baseline in
  Alcotest.(check bool)
    (Printf.sprintf "%d arrivals allocated %.0f minor words" (n - 1) extra)
    true (extra <= 0.5);
  Alcotest.(check int) "and all landed" n (Incremental.placed t)

let online_submit_allocation_free () =
  let chain = Msts.Chain.of_pairs [ (1, 3); (2, 2); (1, 4) ] in
  let n = 256 in
  let o = Online.create ~capacity:n chain
      ~deadline:1_000_000 in
  ignore (Online.submit o 8) (* warm-up *);
  let baseline = calibrate () in
  let before = Gc.minor_words () in
  ignore (Online.submit o (n - 8));
  let after = Gc.minor_words () in
  let extra = after -. before -. baseline in
  (* one boxed ref per submit call is amortized over the whole batch;
     nothing may scale with the arrival count *)
  Alcotest.(check bool)
    (Printf.sprintf "%d arrivals allocated %.0f minor words" (n - 8) extra)
    true (extra <= 16.0);
  Alcotest.(check int) "and all landed" n (Online.placed o)

let fill_edges_never_raise () =
  let t = Incremental.create figure2_chain ~horizon:50 in
  Alcotest.(check int) "max_tasks:0 is a no-op" 0
    (Incremental.fill t ~max_tasks:0 ());
  let zero = Incremental.create figure2_chain ~horizon:0 in
  Alcotest.(check int) "horizon 0 fits nothing" 0 (Incremental.fill zero ());
  Alcotest.check_raises "zero-processor chains cannot exist"
    (Invalid_argument "Msts.Chain.make: empty chain") (fun () ->
      ignore (Msts.Chain.of_pairs []))

let error_prefixes () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Msts.Chain.Incremental.create: negative capacity")
    (fun () -> ignore (Incremental.create ~capacity:(-1) figure2_chain ~horizon:4));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Msts.Online.create: negative deadline") (fun () ->
      ignore (Online.create figure2_chain ~deadline:(-1)));
  Alcotest.check_raises "negative arrival count"
    (Invalid_argument "Msts.Online.submit: negative arrival count") (fun () ->
      ignore (Online.submit (Online.create figure2_chain ~deadline:5) (-1)));
  Alcotest.check_raises "frozen_since outside the prefix"
    (Invalid_argument "Msts.Online.frozen_since: outside the frozen prefix")
    (fun () -> ignore (Online.frozen_since (Online.create figure2_chain ~deadline:5) 1))

(* ---------- deltas ---------- *)

let deltas_narrate_the_session () =
  let deltas = ref [] in
  let emit d = deltas := d :: !deltas in
  let o = Online.create figure2_chain ~deadline:14 in
  ignore (Online.submit ~emit o 6);
  let placed, rejected =
    List.fold_left
      (fun (p, r) -> function
        | Online.Placed _ -> (p + 1, r)
        | Online.Rejected _ -> (p, r + 1)
        | _ -> (p, r))
      (0, 0) !deltas
  in
  Alcotest.(check int) "five Placed deltas" 5 placed;
  Alcotest.(check int) "one Rejected delta" 1 rejected;
  deltas := [];
  ignore (Online.advance ~emit o ~time:14);
  (match !deltas with
  | [ Online.Frozen { frontier = 14; tasks = 5 } ] -> ()
  | _ -> Alcotest.fail "one Frozen delta summarising all five");
  deltas := [];
  (match Online.extend ~emit o ~deadline:100 with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "displaced %d frozen tasks" n
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "no Displaced deltas for an empty suffix" 0
    (List.length !deltas)

(* ---------- driver + trace fuzz campaign ---------- *)

let driver_script_gen =
  QCheck.Gen.(
    triple
      (chain_gen ~min_p:1 ~max_p:4 ())
      (int_range 5 60)
      (list_size (int_range 1 10)
         (pair (int_range 0 60)
            (frequency
               [
                 (5, map (fun n -> `Submit n) (int_range 0 5));
                 (2, map (fun d -> `Extend d) (int_range 0 120));
                 ( 2,
                   map2
                     (fun at wf -> `Degrade (at, wf))
                     (int_range 1 4) (int_range 1 3) );
               ]))))

let driver_script_print (chain, deadline, events) =
  Printf.sprintf "%s, d=%d, events=[%s]"
    (Msts.Chain.to_string chain)
    deadline
    (String.concat ";"
       (List.map
          (fun (at, a) ->
            match a with
            | `Submit n -> Printf.sprintf "%d:submit %d" at n
            | `Extend d -> Printf.sprintf "%d:extend %d" at d
            | `Degrade (p, wf) -> Printf.sprintf "%d:degrade %d x%d" at p wf)
          events))

let to_driver_events chain events =
  let p = Msts.Chain.length chain in
  List.map
    (fun (at, a) ->
      {
        Driver.at;
        action =
          (match a with
          | `Submit n -> Driver.Submit n
          | `Extend d -> Driver.Extend d
          | `Degrade (proc, wf) ->
              Driver.Degrade
                { at = 1 + ((proc - 1) mod p); work_factor = wf });
      })
    events

let driver_executions_satisfy_definition1 =
  to_alcotest
    (QCheck.Test.make ~count:150
       ~name:
         "interleaved arrivals/extends/degrades: frozen-prefix executions \
          satisfy Definition 1"
       (QCheck.make ~print:driver_script_print driver_script_gen)
       (fun (chain, deadline, events) ->
         let r = Msts.Trace.Recorder.create () in
         let outcome =
           Msts.Trace.with_recorder r (fun () ->
               Driver.run chain ~deadline (to_driver_events chain events))
         in
         let trace = Msts.Trace.recorded r in
         (match Msts.Trace.check ~require_nonnegative:true trace with
         | [] -> ()
         | vs ->
             QCheck.Test.fail_reportf "executed prefix violates Definition 1:\n%s"
               (Msts.Trace.report trace vs));
         List.iter
           (fun (_, msg) ->
             if not (String.length msg >= 12 && String.sub msg 0 12 = "Msts.Online.")
             then QCheck.Test.fail_reportf "unprefixed refusal: %s" msg)
           outcome.Driver.refusals;
         outcome.Driver.frozen = outcome.Driver.placed
         && plan_feasible outcome.Driver.plan
         && Msts.Plan.equal outcome.Driver.plan outcome.Driver.frozen_plan))

(* Negative control: corrupt a clean driver trace and the checker must
   not only flag it but localize it — re-checking the localized segment
   reproduces the violation. *)
let corrupted_trace_localized () =
  let r = Msts.Trace.Recorder.create () in
  ignore
    (Msts.Trace.with_recorder r (fun () ->
         Driver.run figure2_chain ~deadline:40
           [ { Driver.at = 0; action = Driver.Submit 4 } ]));
  let trace = Msts.Trace.recorded r in
  Alcotest.(check int) "clean before corruption" 0
    (List.length (Msts.Trace.check trace));
  let events = Msts.Trace.events trace in
  let clash =
    (* overlap a busy cpu: shift one compute pair onto a second task *)
    List.filter_map
      (fun (e : Msts.Trace.event) ->
        match e.Msts.Trace.kind with
        | Msts.Trace.Start (Msts.Trace.Compute _)
        | Msts.Trace.Finish (Msts.Trace.Compute _) ->
            Some
              {
                e with
                Msts.Trace.task = 99;
                time = e.Msts.Trace.time + 1;
                seq = e.Msts.Trace.seq + 1000;
              }
        | _ -> None)
      events
  in
  let bad = segment (events @ clash) in
  match
    List.find_opt
      (fun v -> v.Msts.Trace.invariant = "cpu-exclusive")
      (Msts.Trace.check bad)
  with
  | None -> Alcotest.fail "overlapping computes not flagged"
  | Some v ->
      Alcotest.(check bool) "localized segment reproduces the violation" true
        (Msts.Trace.check_segment (Msts.Trace.localize bad v) <> [])

(* ---------- the session service (daemon + CLI share it) ---------- *)

let chain_platform = Msts.Platform_format.Chain_platform figure2_chain

let service_lifecycle () =
  let svc = Service.create ~max_sessions:1 () in
  let opened =
    Service.exec svc
      (Api.Online_open { platform = chain_platform; deadline = 40; capacity = 0 })
  in
  (match opened with
  | Ok (Json.Obj kvs) ->
      Alcotest.(check bool) "session 1" true
        (List.assoc_opt "session" kvs = Some (Json.Int 1))
  | _ -> Alcotest.fail "open failed");
  Alcotest.(check int) "one session" 1 (Service.sessions svc);
  (match
     Service.exec svc
       (Api.Online_open { platform = chain_platform; deadline = 9; capacity = 0 })
   with
  | Error { Api.code = Api.Overloaded; _ } -> ()
  | _ -> Alcotest.fail "session limit not enforced");
  (match Service.exec svc (Api.Online_submit { session = 7; tasks = 1 }) with
  | Error { Api.code = Api.Invalid_argument_error; _ } -> ()
  | _ -> Alcotest.fail "unknown session not rejected");
  (match Service.exec svc (Api.Online_submit { session = 1; tasks = 3 }) with
  | Ok (Json.Obj kvs) -> (
      Alcotest.(check bool) "three placed" true
        (List.assoc_opt "placed" kvs = Some (Json.Int 3));
      match List.assoc_opt "deltas" kvs with
      | Some (Json.List deltas) ->
          Alcotest.(check int) "one delta per arrival" 3 (List.length deltas)
      | _ -> Alcotest.fail "deltas missing")
  | _ -> Alcotest.fail "submit failed");
  (match Service.exec svc Api.Ping with
  | Error { Api.code = Api.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "non-online op accepted");
  (match Service.exec svc (Api.Online_close { session = 1 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "close failed: %s" e.Api.message);
  Alcotest.(check int) "closed" 0 (Service.sessions svc);
  let svc2 = Service.create () in
  (match
     Service.exec svc2
       (Api.Online_open
          {
            platform =
              Msts.Platform_format.Fork_platform
                (Msts.Fork.of_pairs [ (1, 2) ]);
            deadline = 10;
            capacity = 0;
          })
   with
  | Error { Api.code = Api.Invalid_platform; _ } -> ()
  | _ -> Alcotest.fail "fork platform accepted");
  ignore
    (Service.exec svc2
       (Api.Online_open { platform = chain_platform; deadline = 5; capacity = 0 }));
  Alcotest.(check int) "one session open" 1 (Service.sessions svc2)

(* The session plan payload is byte-identical to the batch deadline
   solve's JSON — the daemon's online stream ends exactly where the
   one-shot CLI would have landed. *)
let service_plan_equals_deadline_solve () =
  let svc = Service.create () in
  ignore
    (Service.exec svc
       (Api.Online_open { platform = chain_platform; deadline = 14; capacity = 0 }));
  ignore (Service.exec svc (Api.Online_submit { session = 1; tasks = 5 }));
  let online_doc =
    match Service.exec svc (Api.Online_plan { session = 1 }) with
    | Ok (Json.Obj kvs) ->
        (* strip the session-specific prefix fields *)
        Json.Obj
          (List.filter
             (fun (k, _) ->
               not (List.mem k [ "session"; "frontier"; "frozen"; "rejected" ]))
             kvs)
    | _ -> Alcotest.fail "plan failed"
  in
  let batch_doc =
    match
      Api.exec ~solver:Api.direct_solver
        (Api.Deadline
           {
             Msts.Solve.platform = chain_platform;
             tasks = Some 5;
             deadline = Some 14;
           })
    with
    | Ok reply -> Api.json_of_reply reply
    | Error e -> Alcotest.failf "batch solve failed: %s" e.Api.message
  in
  Alcotest.(check string) "same JSON document"
    (Json.to_string batch_doc)
    (Json.to_string online_doc)

(* The serve engine answers online operations synchronously, even while
   draining — the zero-dropped-deltas guarantee. *)
let engine_serves_online_while_draining () =
  let engine =
    Msts_serve.Engine.create
      { Msts_serve.Engine.default_config with jobs = 1; cache_capacity = 4 }
  in
  let ask op =
    let got = ref None in
    engine_submit engine
      ~reply:(fun line -> got := Some (response_of_frame line))
      { Api.id = None; trace = None; op };
    match !got with
    | Some r -> r.Api.result
    | None -> Alcotest.fail "online op was queued instead of answered"
  in
  (match
     ask (Api.Online_open { platform = chain_platform; deadline = 40; capacity = 0 })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "open failed: %s" e.Api.message);
  Msts_serve.Engine.stop engine;
  (match ask (Api.Online_submit { session = 1; tasks = 2 }) with
  | Ok (Json.Obj kvs) ->
      Alcotest.(check bool) "deltas delivered during drain" true
        (List.assoc_opt "placed" kvs = Some (Json.Int 2))
  | _ -> Alcotest.fail "online op refused during drain");
  (match ask (Api.Schedule (Msts.Solve.problem ~tasks:2 chain_platform)) with
  | Error { Api.code = Api.Shutting_down; _ } -> ()
  | _ -> Alcotest.fail "solve admitted during drain");
  (match serve_stats engine with
  | Json.Obj kvs ->
      Alcotest.(check bool) "stats expose online_sessions" true
        (List.assoc_opt "online_sessions" kvs = Some (Json.Int 1))
  | _ -> Alcotest.fail "stats not an object");
  Msts_serve.Engine.shutdown engine

let suites =
  [
    ( "online.differential",
      [
        online_matches_batch ~name:"online arrivals = batch solve (fast kernel)"
          library_batch;
        online_matches_batch
          ~name:"online session = frozen reference deadline construction (arrivals)"
          reference_batch;
        extends_match_batch
          ~name:"interleaved extends stay batch-identical (fast kernel)"
          library_batch;
        extends_match_batch
          ~name:
            "online session = frozen reference deadline construction (interleaved \
             extends)"
          reference_batch;
      ] );
    ( "online.freezing",
      [
        freezing_partitions_the_plan;
        case "extension re-opens admission" admission_reopens_after_extend;
        case "shrinking refused" shrinking_deadline_refused;
        case "refusal names the minimal deadline" refusal_names_minimal_deadline;
      ] );
    ( "online.degrade",
      [
        degrade_replaces_only_unfrozen;
        case "refusals: committed processor, bad arguments" degrade_refusals;
      ] );
    ( "online.allocation",
      [
        case "incremental arrivals allocation-free after warm-up"
          incremental_arrivals_allocation_free;
        case "online submit allocation-free after warm-up"
          online_submit_allocation_free;
        case "fill edge cases never raise" fill_edges_never_raise;
        case "error messages carry the Msts. prefix" error_prefixes;
      ] );
    ("online.deltas", [ case "deltas narrate the session" deltas_narrate_the_session ]);
    ( "online.driver",
      [
        driver_executions_satisfy_definition1;
        case "corrupted traces are localized" corrupted_trace_localized;
      ] );
    ( "online.service",
      [
        case "session lifecycle and error codes" service_lifecycle;
        case "plan payload = batch deadline solve" service_plan_equals_deadline_solve;
        case "engine answers online ops while draining"
          engine_serves_online_while_draining;
      ] );
  ]
