(* The typed request API: total codecs (decode ∘ encode = id on random
   requests and responses, garbage in → structured errors out, never an
   exception), version gating, the error-code taxonomy, and the
   CLI-vs-daemon equivalence contract — the engine's wire answer to a
   request is byte-identical to Api.exec over the direct solver, because
   both are the same code path. *)

open Helpers
module Api = Msts.Api
module Json = Msts.Json
module Gen = QCheck.Gen

(* ---------- generators ---------- *)

let platform_gen =
  let profile = Msts.Generator.default_profile in
  Gen.(
    int_range 0 1_000_000 >>= fun seed ->
    let rng = Msts.Prng.create seed in
    oneofl [ `Chain; `Fork; `Spider; `Tree ] >|= function
    | `Chain ->
        Msts.Platform_format.Chain_platform
          (Msts.Generator.chain rng profile ~p:(1 + (seed mod 5)))
    | `Fork ->
        Msts.Platform_format.Fork_platform
          (Msts.Generator.fork rng profile ~slaves:(1 + (seed mod 5)))
    | `Spider ->
        Msts.Platform_format.Spider_platform
          (Msts.Generator.spider rng profile ~legs:(1 + (seed mod 4)) ~max_depth:2)
    | `Tree ->
        Msts.Platform_format.Tree_platform
          (Msts.Generator.tree rng profile ~nodes:(2 + (seed mod 6)) ~max_children:3))

let problem_gen =
  Gen.(
    platform_gen >>= fun platform ->
    opt (int_range 0 40) >>= fun tasks ->
    opt (int_range 0 200) >|= fun deadline ->
    { Msts.Solve.platform; tasks; deadline })

let workload_gen =
  Gen.oneofl [ Api.Solve_only; Api.Execute; Api.Pull; Api.Faults ]

let op_gen =
  Gen.(
    oneof
      [
        return Api.Ping;
        return Api.Stats;
        return Api.Shutdown;
        map (fun p -> Api.Schedule p) problem_gen;
        map (fun p -> Api.Deadline p) problem_gen;
        map (fun p -> Api.Metrics p) problem_gen;
        map
          (fun ps -> Api.Batch (Array.of_list ps))
          (list_size (int_range 0 5) problem_gen);
        map2 (fun problem planned -> Api.Report { problem; planned }) problem_gen
          bool;
        map2
          (fun problem (trace, seed, events) ->
            Api.Check { problem; trace; seed; events })
          problem_gen
          (triple bool (int_range 0 1000) (int_range 0 10));
        map2
          (fun (platform, tasks, deadline) (workload, seed, events) ->
            Api.Profile { platform; tasks; deadline; workload; seed; events })
          (triple platform_gen (int_range 0 30) (opt (int_range 0 100)))
          (triple workload_gen (int_range 0 1000) (int_range 0 10));
        map
          (fun (platform, deadline, capacity) ->
            Api.Online_open { platform; deadline; capacity })
          (triple platform_gen (int_range 0 500) (int_range 0 8));
        map2
          (fun session tasks -> Api.Online_submit { session; tasks })
          (int_range 1 64) (int_range 0 40);
        map2
          (fun session time -> Api.Online_advance { session; time })
          (int_range 1 64) (int_range 0 500);
        map2
          (fun session deadline -> Api.Online_extend { session; deadline })
          (int_range 1 64) (int_range 0 500);
        map2
          (fun session (at, work_factor) ->
            Api.Online_degrade { session; at; work_factor })
          (int_range 1 64)
          (pair (int_range 1 5) (int_range 1 4));
        map (fun session -> Api.Online_plan { session }) (int_range 1 64);
        map (fun session -> Api.Online_close { session }) (int_range 1 64);
        return Api.Metrics_dump;
      ])

let trace_gen =
  Gen.(opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))

let request_gen =
  Gen.(
    map3
      (fun id trace op -> { Api.id; trace; op })
      (opt (int_range 0 1_000_000))
      trace_gen op_gen)

let rec json_gen depth =
  Gen.(
    if depth = 0 then
      oneof
        [
          map (fun i -> Json.Int i) (int_range (-1000) 1000);
          map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
          map (fun b -> Json.Bool b) bool;
          return Json.Null;
        ]
    else
      oneof
        [
          map (fun i -> Json.Int i) (int_range (-1000) 1000);
          map (fun l -> Json.List l) (list_size (int_range 0 3) (json_gen (depth - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_range 0 3)
               (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                  (json_gen (depth - 1))));
        ])

let error_code_gen =
  Gen.oneofl
    [
      Api.Bad_request; Api.Unsupported_version; Api.Invalid_platform;
      Api.Invalid_argument_error; Api.Unsolvable; Api.Overloaded;
      Api.Timeout; Api.Shutting_down; Api.Internal;
    ]

let response_gen =
  Gen.(
    map3
      (fun id trace result -> { Api.id; trace; result })
      (opt (int_range 0 1_000_000))
      trace_gen
      (oneof
         [
           map (fun j -> Ok j) (json_gen 2);
           map2
             (fun code message -> Error (Api.error code message))
             error_code_gen
             (string_size ~gen:printable (int_range 0 30));
         ]))

let request_print r = Api.request_to_line r
let response_print r = Api.response_to_line r

(* ---------- codec round-trips ---------- *)

let request_roundtrip =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"decode ∘ encode = id on requests"
       (QCheck.make ~print:request_print request_gen) (fun r ->
         match Api.request_of_line (Api.request_to_line r) with
         | Ok r' -> r' = r
         | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Api.message))

let response_roundtrip =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"decode ∘ encode = id on responses"
       (QCheck.make ~print:response_print response_gen) (fun r ->
         match Api.response_of_line (Api.response_to_line r) with
         | Ok r' -> r' = r
         | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Api.message))

(* Any payload tree and any error: the envelope writer's frame is the
   frozen tree envelope's printing. *)
let envelope_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"response_to_line = the tree envelope's printing"
       (QCheck.make ~print:response_print response_gen) (fun r ->
         let written = Api.response_to_line r and want = Api_reference.response_to_line r in
         written = want
         || QCheck.Test.fail_reportf "written:\n%s\nreference:\n%s" written want))

(* ---------- total decoding: rejection, never exceptions ---------- *)

let truncated_frames_rejected =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"every strict prefix of a valid frame is rejected as bad_request"
       (QCheck.make ~print:request_print request_gen) (fun r ->
         let line = String.trim (Api.request_to_line r) in
         let ok = ref true in
         for len = 0 to String.length line - 1 do
           match Api.request_of_line (String.sub line 0 len) with
           | Ok _ -> ok := false
           | Error { Api.code = Api.Bad_request; _ } -> ()
           | Error _ -> ok := false
           | exception _ -> ok := false
         done;
         !ok))

let garbage_never_raises =
  to_alcotest
    (QCheck.Test.make ~count:500 ~name:"request decoder never raises on bytes"
       (QCheck.make ~print:String.escaped
          Gen.(string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 120)))
       (fun line ->
         (match Api.request_of_line line with Ok _ | Error _ -> ());
         (match Api.response_of_line line with Ok _ | Error _ -> ());
         true))

let unknown_version_rejected () =
  (match Api.request_of_line "{\"v\":2,\"op\":\"ping\"}" with
  | Error { Api.code = Api.Unsupported_version; _ } -> ()
  | Ok _ -> Alcotest.fail "accepted v=2"
  | Error e -> Alcotest.failf "wrong code: %s" (Api.error_code_to_string e.Api.code));
  (* absent "v" means current version *)
  match Api.request_of_line "{\"op\":\"ping\"}" with
  | Ok { Api.op = Api.Ping; _ } -> ()
  | _ -> Alcotest.fail "rejected a version-less ping"

let error_code_names_bijective () =
  List.iter
    (fun code ->
      let name = Api.error_code_to_string code in
      let line =
        Api.response_to_line
          { Api.id = None; trace = None; result = Error (Api.error code "m") }
      in
      Alcotest.(check bool)
        (name ^ " survives the name round-trip")
        true
        (match Api.response_of_line line with
        | Ok { Api.result = Error e; _ } -> e.Api.code = code
        | _ -> false))
    [
      Api.Bad_request; Api.Unsupported_version; Api.Invalid_platform;
      Api.Invalid_argument_error; Api.Unsolvable; Api.Overloaded;
      Api.Timeout; Api.Shutting_down; Api.Internal;
    ];
  Alcotest.(check bool)
    "unknown names are rejected" true
    (match
       Api.response_of_line
         "{\"v\":1,\"error\":{\"code\":\"no_such_code\",\"message\":\"m\"}}"
     with
    | Error e -> e.Api.code = Api.Bad_request
    | Ok _ -> false)

let prefix_convention_classified () =
  let e1 = Api.error_of_solve_failure "Msts.Netsim.execute: negative start" in
  Alcotest.(check bool) "Msts.-prefixed message is invalid_argument" true
    (e1.Api.code = Api.Invalid_argument_error
    && e1.Api.message = "Msts.Netsim.execute: negative start");
  let e2 = Api.error_of_solve_failure "give either tasks or a deadline" in
  Alcotest.(check bool) "plain refusal is unsolvable" true
    (e2.Api.code = Api.Unsolvable);
  let e3 = Api.error_of_exn (Invalid_argument "Msts.Chain.of_pairs: empty") in
  Alcotest.(check bool) "Invalid_argument exception keeps its message" true
    (e3.Api.code = Api.Invalid_argument_error
    && e3.Api.message = "Msts.Chain.of_pairs: empty");
  let e4 = Api.error_of_exn Not_found in
  Alcotest.(check bool) "other exceptions are internal" true
    (e4.Api.code = Api.Internal)

let workload_names_roundtrip () =
  List.iter
    (fun (name, w) ->
      let op =
        Api.Profile
          {
            platform = Msts.Platform_format.Chain_platform figure2_chain;
            tasks = 3;
            deadline = None;
            workload = w;
            seed = 0;
            events = 0;
          }
      in
      let line = Api.request_to_line { Api.id = None; trace = None; op } in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Json.member "workload" (Result.get_ok (Json.parse line))
         = Some (Json.String name)
        && Api.request_of_line line = Ok { Api.id = None; trace = None; op }))
    [ ("solve", Api.Solve_only); ("execute", Api.Execute); ("pull", Api.Pull);
      ("faults", Api.Faults) ]

(* ---------- exec over the direct solver = the Solve facade ---------- *)

let exec_matches_solve =
  to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"exec Schedule/Deadline agrees with Solve.solve"
       (QCheck.make ~print:request_print
          Gen.(
            map
              (fun p -> { Api.id = None; trace = None; op = Api.Schedule p })
              problem_gen))
       (fun { Api.op; _ } ->
         let problem =
           match op with Api.Schedule p -> p | _ -> assert false
         in
         let direct = Msts.Solve.solve problem in
         match (Api.exec ~solver:Api.direct_solver op, direct) with
         | Ok (Api.Solved { plan; _ }), Ok plan' -> Msts.Plan.equal plan plan'
         | Error _, Error _ -> true
         | Ok _, Error msg ->
             QCheck.Test.fail_reportf "exec solved, facade refused: %s" msg
         | Error e, Ok _ ->
             QCheck.Test.fail_reportf "exec refused a solvable problem: %s"
               e.Api.message
         | _ -> false))

(* ---------- the engine answers with the same bytes ---------- *)

let figure2_problem () =
  Msts.Solve.problem ~tasks:5
    (Msts.Platform_format.Chain_platform figure2_chain)

(* [check] and [profile] answer a negative task or event count one way,
   whatever the workload and whether the check is traced. *)
(* A negative [tasks] or [events] gets one answer per field, whatever the
   command, workload or [traced]: [tasks] is checked first. *)
let negative_counts_answered_once what op () =
  let platform =
    Msts.Platform_format.Spider_platform
      (Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ])
  in
  let expect case op code message =
    match Api.exec ~solver:Api.direct_solver op with
    | Ok _ -> Alcotest.failf "%s, %s: accepted" what case
    | Error e ->
        Alcotest.(check string) (case ^ ": code")
          (Api.error_code_to_string code)
          (Api.error_code_to_string e.Api.code);
        Alcotest.(check string) (case ^ ": message") message e.Api.message
  in
  let tasks_error = (Api.Unsolvable, "negative task count")
  and events_error = (Api.Invalid_argument_error, "field \"events\" must be >= 0") in
  List.iter
    (fun (case, tasks, events, (code, message)) ->
      expect case (op platform ~tasks ~events) code message)
    [
      ("tasks -3", -3, 2, tasks_error);
      ("events -1", 4, -1, events_error);
      ("both negative", -3, -1, tasks_error);
    ]

let negative_counts_profile workload platform ~tasks ~events =
  Api.Profile { platform; tasks; deadline = None; workload; seed = 1; events }

let negative_counts_check traced platform ~tasks ~events =
  Api.Check { problem = Msts.Solve.problem ~tasks platform; trace = traced; seed = 1; events }

let negative_counts_cases =
  List.map
    (fun (what, op) ->
      case
        (Printf.sprintf "%s: negative tasks and events, one answer each" what)
        (negative_counts_answered_once what op))
    [
      ("profile solve", negative_counts_profile Api.Solve_only);
      ("profile execute", negative_counts_profile Api.Execute);
      ("profile pull", negative_counts_profile Api.Pull);
      ("profile faults", negative_counts_profile Api.Faults);
      ("check untraced", negative_counts_check false);
      ("check traced", negative_counts_check true);
    ]

(* An event count above the fault replay's engine budget is refused
   before anything runs, by [check] and [profile] alike. *)
let events_over_budget_refused () =
  let platform = Msts.Platform_format.Chain_platform figure2_chain in
  List.iter
    (fun (what, op) ->
      match Api.exec ~solver:Api.direct_solver op with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error e ->
          Alcotest.(check string) (what ^ ": code") "invalid_argument"
            (Api.error_code_to_string e.Api.code);
          Alcotest.(check string) (what ^ ": message")
            "field \"events\" must be <= 1000000" e.Api.message)
    [
      ("check traced", negative_counts_check true platform ~tasks:4 ~events:1_000_001);
      ("profile faults", negative_counts_profile Api.Faults platform ~tasks:4 ~events:1_000_001);
    ]

let engine_config =
  { Msts_serve.Engine.default_config with jobs = 1; cache_capacity = 4 }

let engine_wire_equals_direct () =
  let engine = Msts_serve.Engine.create engine_config in
  let problem = figure2_problem () in
  let ask op =
    let got = ref None in
    Msts_serve.Engine.handle_line engine
      ~reply:(fun line -> got := Some line)
      (Api.request_to_line { Api.id = Some 9; trace = None; op });
    ignore (Msts_serve.Engine.dispatch engine);
    match !got with
    | Some line -> line
    | None -> Alcotest.fail "engine never replied"
  in
  List.iter
    (fun op ->
      let wire = ask op in
      let direct =
        Api.response_to_line
          (Api.respond ~solver:Api.direct_solver
             { Api.id = Some 9; trace = None; op })
      in
      Alcotest.(check string)
        (Api.op_name op ^ " over the wire = direct exec")
        direct wire)
    [
      Api.Schedule problem;
      Api.Deadline { problem with Msts.Solve.tasks = None; deadline = Some 40 };
      Api.Metrics problem;
      Api.Report { problem; planned = true };
      Api.Check { problem; trace = false; seed = 0; events = 3 };
    ];
  Msts_serve.Engine.shutdown engine

(* ---------- the wire writer against the reference encoder ---------- *)

let wire_id_gen =
  Gen.(
    frequency
      [
        (1, return None);
        (2, map Option.some (oneofl [ 0; -1; -42; 1_000_000_007; max_int; min_int ]));
        (2, map Option.some int);
      ])

(* quotes, backslashes, control bytes, UTF-8 and stray high bytes *)
let wire_string_gen =
  Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 16);
        oneofl
          [ ""; "\""; "\\"; "a\"b\\c"; "\n\r\t\000\031\127"; "héllo ✓ 調度"; "\xff\xfe" ];
      ])

let wire_trace_gen = Gen.opt wire_string_gen

let plan_op_gen =
  Gen.(
    problem_gen >>= fun p ->
    oneofl [ Api.Schedule p; Api.Deadline p ])

(* Operations whose replies exercise every payload: the written ones
   (plans with and without a deadline, batches) often, the spliced ones
   (report, check, profile, control and refused operations) through
   [op_gen]. *)
let wire_op_gen =
  Gen.(
    frequency
      [
        (4, plan_op_gen);
        ( 2,
          map (fun ps -> Api.Batch (Array.of_list ps))
            (list_size (int_range 0 8) problem_gen) );
        (4, op_gen);
      ])

(* The frame [response_line] writes, against the frozen tree encoders of
   test/api_reference.ml; and, for a reply, the tree [json_of_reply]
   reads back and the indented text the CLI prints, against the same
   trees. *)
(* What [msts ... --format=json] prints for a reply, read back from the
   channel it streams to. *)
let streamed_pretty reply =
  let path = Filename.temp_file "msts_pretty" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Api.output_pretty_reply oc reply);
      In_channel.with_open_bin path In_channel.input_all)

let writer_matches_reference result id trace =
  let reference =
    Api_reference.response_to_line
      { Api.id; trace; result = Result.map Api_reference.json_of_reply result }
  in
  let written = Api.response_line ~id ~trace result in
  (written = reference
  || QCheck.Test.fail_reportf "written:\n%s\nreference:\n%s" written reference)
  &&
  match result with
  | Error _ -> true
  | Ok reply ->
      let tree = Api_reference.json_of_reply reply in
      let pretty = streamed_pretty reply
      and want = Json_reference.to_string ~pretty:true tree in
      (Json.to_string (Api.json_of_reply reply) = Json.to_string tree
      || QCheck.Test.fail_reportf "json_of_reply differs from the reference tree:\n%s"
           reference)
      && (pretty = want
         || QCheck.Test.fail_reportf "pretty:\n%s\nreference:\n%s" pretty want)

let response_line_matches_tree =
  to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"response_line = response_to_line of the reply tree"
       (QCheck.make
          ~print:(fun (id, trace, op) -> request_print { Api.id; trace; op })
          Gen.(triple wire_id_gen wire_trace_gen wire_op_gen))
       (fun (id, trace, op) ->
         writer_matches_reference
           (Api.exec ~cache_capacity:4 ~solver:Api.direct_solver op)
           id trace))

(* The engine's answer to a batch frame, dispatched until it comes. *)
let engine_batch_reply ~id ~trace problems =
  let engine = Msts_serve.Engine.create engine_config in
  let got = ref None in
  Msts_serve.Engine.handle_line engine
    ~reply:(fun line -> got := Some line)
    (Api.request_to_line { Api.id; trace; op = Api.Batch problems });
  let rec wait rounds =
    match !got with
    | Some line -> line
    | None when rounds = 0 -> Alcotest.fail "engine never replied"
    | None ->
        ignore (Msts_serve.Engine.dispatch engine);
        wait (rounds - 1)
  in
  let line = wait 1000 in
  Msts_serve.Engine.shutdown engine;
  line

(* What the engine must answer: the tree of the reply that sharding the
   decoded batch with a fresh cache of the engine's capacity gives. *)
let batch_reply_tree ~id ~trace problems =
  let decoded =
    match Api.request_of_line (Api.request_to_line { Api.id; trace; op = Api.Batch problems }) with
    | Ok { Api.op = Api.Batch decoded; _ } -> decoded
    | _ -> Alcotest.fail "the batch frame did not decode"
  in
  let plan =
    Msts.Batch.shard ~cache:(Msts.Batch.cache ~capacity:engine_config.cache_capacity) decoded
  in
  let k = Msts.Batch.shard_count plan in
  let outcomes, stats =
    Msts.Batch.assemble plan ~jobs:1
      ~solved:(Array.init k (fun slot -> Api.guarded_solve (Msts.Batch.shard_request plan slot)))
      ~wait_us:(Array.make k 0) ~busy_us:(Array.make k 0)
  in
  Api_reference.response_to_line
    {
      Api.id;
      trace;
      result =
        Ok
          (Api_reference.json_of_reply
             (Api.Batched
                {
                  problems = decoded;
                  outcomes;
                  firsts = [||];
                  stats;
                  cache_capacity = engine_config.cache_capacity;
                }));
    }

(* Batch replies assembled by hand: solved and failed outcomes in any
   mix, failure messages with bytes that need escaping, any stats.  The
   same problems, each then repeated, sent to the engine as a frame come
   back as the reply tree's bytes: the decoder's repeat map, the shard
   and the copying writer change none. *)
let batched_line_matches_tree =
  let outcome_gen =
    Gen.(
      problem_gen >>= fun problem ->
      wire_string_gen >|= fun msg ->
      ( problem,
        match Msts.Solve.solve problem with
        | Ok plan when String.length msg mod 2 = 0 -> Ok plan
        | _ -> Error msg ))
  in
  let stats_gen =
    Gen.(
      map3
        (fun requests (cache_hits, cache_misses) jobs ->
          {
            Msts.Batch.jobs;
            requests;
            cache_hits;
            cache_misses;
            queue_wait_us = 0;
            busy_us = 0;
          })
        nat (pair nat nat) (int_range 1 4))
  in
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"response_line = response_to_line on mixed batch replies"
       (QCheck.make
          Gen.(
            pair
              (triple wire_id_gen wire_trace_gen (list_size (int_range 0 10) outcome_gen))
              (pair stats_gen nat)))
       (fun ((id, trace, items), (stats, cache_capacity)) ->
         let problems = Array.of_list (List.map fst items) in
         let outcomes = Array.of_list (List.map snd items) in
         let repeated = Array.append problems (Array.of_list (List.rev_map fst items)) in
         let engine = engine_batch_reply ~id ~trace repeated
         and tree = batch_reply_tree ~id ~trace repeated in
         writer_matches_reference
           (Ok (Api.Batched { problems; outcomes; firsts = [||]; stats; cache_capacity }))
           id trace
         && (engine = tree
            || QCheck.Test.fail_reportf "engine:\n%s\ntree:\n%s" engine tree)))

(* Batch replies as the daemon's engine assembles them, over a small
   pool of problems drawn with repetition, some of which fail: repeated
   results and repeated errors are written once and copied.  Any
   [firsts] at all gives the same bytes: the writer copies only when the
   outcome and the kind confirm the repeat. *)
let repeated_batched_line_matches_tree =
  let failing_gen =
    Gen.(
      problem_gen >|= fun p ->
      { p with Msts.Solve.tasks = None; deadline = None } (* no objective *))
  in
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"response_line = response_to_line on batches of repeats and repeated errors"
       (QCheck.make
          Gen.(
            pair
              (list_size (int_range 1 4) (frequency [ (3, problem_gen); (1, failing_gen) ]))
              (pair (list_size (int_range 0 40) nat)
                 (list_size (int_range 0 40) (int_range (-2) 40)))))
       (fun (pool, (picks, noise)) ->
         let pool = Array.of_list pool in
         let problems =
           Array.of_list (List.map (fun k -> pool.(k mod Array.length pool)) picks)
         in
         let plan = Msts.Batch.shard problems in
         let k = Msts.Batch.shard_count plan in
         let solved =
           Array.init k (fun slot ->
               Api.guarded_solve (Msts.Batch.shard_request plan slot))
         in
         let outcomes, stats =
           Msts.Batch.assemble plan ~jobs:1 ~solved ~wait_us:(Array.make k 0)
             ~busy_us:(Array.make k 0)
         in
         let reply firsts =
           Ok (Api.Batched { problems; outcomes; firsts; stats; cache_capacity = 8 })
         in
         let firsts = Msts.Batch.firsts plan in
         Array.iteri
           (fun i j ->
             if j > i || firsts.(j) <> j || outcomes.(j) != outcomes.(i) then
               QCheck.Test.fail_reportf "firsts.(%d) = %d is not a first with i's outcome" i j)
           firsts;
         writer_matches_reference (reply firsts) (Some 1) None
         && writer_matches_reference (reply (Array.of_list noise)) None None))

(* ---------- trace context and the metrics control op ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let trace_context_echoed () =
  (match Api.request_of_line {|{"id":4,"trace":"req-7","op":"ping"}|} with
  | Ok { Api.id = Some 4; trace = Some "req-7"; op = Api.Ping } -> ()
  | _ -> Alcotest.fail "the trace field did not decode");
  let answered =
    Api.response_to_line
      (Api.respond ~solver:Api.direct_solver
         { Api.id = Some 4; trace = Some "req-7"; op = Api.Ping })
  in
  (match Api.response_of_line answered with
  | Ok { Api.id = Some 4; trace = Some "req-7"; _ } -> ()
  | _ -> Alcotest.failf "respond lost the trace: %s" answered);
  (* A trace-less request must produce a trace-less response frame —
     clients that never send the field never see it. *)
  let bare =
    Api.response_to_line
      (Api.respond ~solver:Api.direct_solver
         { Api.id = Some 4; trace = None; op = Api.Ping })
  in
  Alcotest.(check bool) "no trace field injected" false (contains bare "trace")

let engine_echoes_trace () =
  let engine = Msts_serve.Engine.create engine_config in
  let ask frame =
    let got = ref None in
    Msts_serve.Engine.handle_line engine ~reply:(fun l -> got := Some l) frame;
    ignore (Msts_serve.Engine.dispatch engine);
    match !got with
    | Some line -> line
    | None -> Alcotest.fail "engine never replied"
  in
  (* control fast path *)
  (match Api.response_of_line (ask {|{"id":1,"trace":"t-a","op":"ping"}|}) with
  | Ok { Api.trace = Some "t-a"; _ } -> ()
  | _ -> Alcotest.fail "control reply lost the trace");
  (* queued solve path *)
  let solve =
    Api.request_to_line
      {
        Api.id = Some 2;
        trace = Some "t-b";
        op = Api.Schedule (figure2_problem ());
      }
  in
  (match Api.response_of_line (ask solve) with
  | Ok { Api.id = Some 2; trace = Some "t-b"; result = Ok _ } -> ()
  | _ -> Alcotest.fail "solve reply lost the trace");
  (* malformed frame: trace recovered best-effort from the raw bytes *)
  (match
     Api.response_of_line
       (ask {|{"id":3,"trace":"t-c","op":"schedule","platform":12}|})
   with
  | Ok { Api.trace = Some "t-c"; result = Error { Api.code = Api.Bad_request; _ }; _ }
    ->
      ()
  | _ -> Alcotest.fail "bad_request reply lost the trace");
  Msts_serve.Engine.shutdown engine

let metrics_op_decoding () =
  (* Bare "metrics" is the control op; with a platform it stays the
     Metrics plan operation — the wire name is shared. *)
  (match Api.request_of_line {|{"op":"metrics"}|} with
  | Ok { Api.op = Api.Metrics_dump; _ } -> ()
  | _ -> Alcotest.fail "bare metrics frame is not Metrics_dump");
  let plan_metrics =
    { Api.id = None; trace = None; op = Api.Metrics (figure2_problem ()) }
  in
  (match Api.request_of_line (Api.request_to_line plan_metrics) with
  | Ok { Api.op = Api.Metrics _; _ } -> ()
  | _ -> Alcotest.fail "metrics-with-platform lost its problem");
  let dump = { Api.id = Some 8; trace = None; op = Api.Metrics_dump } in
  match Api.request_of_line (Api.request_to_line dump) with
  | Ok r -> Alcotest.(check bool) "Metrics_dump round-trips" true (r = dump)
  | Error e -> Alcotest.failf "Metrics_dump decode failed: %s" e.Api.message

let engine_serves_metrics_dump () =
  let engine = Msts_serve.Engine.create engine_config in
  let got = ref None in
  engine_submit engine
    ~reply:(fun line -> got := Some (response_of_frame line))
    { Api.id = Some 1; trace = None; op = Api.Metrics_dump };
  (match !got with
  | Some { Api.result = Ok (Json.Obj fields); _ } -> (
      (match List.assoc_opt "format" fields with
      | Some (Json.String "prometheus-text-0.0.4") -> ()
      | _ -> Alcotest.fail "metrics reply lost its format tag");
      match List.assoc_opt "body" fields with
      | Some (Json.String body) ->
          Alcotest.(check bool) "exposition has TYPE lines" true
            (contains body "# TYPE ")
      | _ -> Alcotest.fail "metrics reply lost its body")
  | Some _ -> Alcotest.fail "metrics reply malformed"
  | None -> Alcotest.fail "metrics op was queued instead of answered");
  Msts_serve.Engine.shutdown engine

let engine_admission_control () =
  let engine =
    Msts_serve.Engine.create
      { engine_config with Msts_serve.Engine.queue_cap = 1 }
  in
  let responses = ref [] in
  let reply line = responses := response_of_frame line :: !responses in
  let submit () =
    engine_submit engine ~reply
      { Api.id = None; trace = None; op = Api.Schedule (figure2_problem ()) }
  in
  submit ();
  submit ();
  (* second one bounced: queue_cap 1 *)
  (match !responses with
  | [ { Api.result = Error { Api.code = Api.Overloaded; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one overloaded rejection");
  ignore (Msts_serve.Engine.drain engine);
  Alcotest.(check int) "queued request still answered" 2
    (List.length !responses);
  Msts_serve.Engine.stop engine;
  submit ();
  (match !responses with
  | { Api.result = Error { Api.code = Api.Shutting_down; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected shutting_down after stop");
  Alcotest.(check int) "served counts every response" 3
    (Msts_serve.Engine.served engine);
  Msts_serve.Engine.shutdown engine

let engine_malformed_frames_answered () =
  let engine = Msts_serve.Engine.create engine_config in
  let got = ref None in
  Msts_serve.Engine.handle_line engine
    ~reply:(fun line -> got := Some line)
    "{\"id\":3,\"op\":\"schedule\",\"platform\":12}";
  (match !got with
  | Some line -> (
      match Api.response_of_line line with
      | Ok
          {
            Api.id = Some 3;
            result = Error { Api.code = Api.Bad_request; _ };
            _;
          } ->
          ()
      | _ -> Alcotest.failf "unexpected reply %s" line)
  | None -> Alcotest.fail "malformed frame got no reply");
  Msts_serve.Engine.shutdown engine

(* ---------- the per-frame platform memo ---------- *)

let batch_frame texts =
  let problem text =
    Json.Obj [ ("platform", Json.String text); ("tasks", Json.Int 3) ]
  in
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "batch"); ("problems", Json.List (List.map problem texts)) ])

let batch_decode_shares_platforms () =
  let a = "chain\n2 3\n3 5\n" and b = "fork\n1 4\n2 2\n" in
  let texts = [ a; b; a; a; b ] in
  let decode () =
    match Api.request_of_line (batch_frame texts) with
    | Ok { Api.op = Api.Batch problems; _ } ->
        Array.map (fun p -> p.Msts.Solve.platform) problems
    | _ -> Alcotest.fail "batch frame did not decode"
  in
  let platforms = decode () in
  List.iteri
    (fun i text ->
      Alcotest.(check bool)
        (Printf.sprintf "problem %d = Parse.of_string of its text" i)
        true
        (Ok platforms.(i) = Msts.Platform_format.of_string text))
    texts;
  Alcotest.(check bool) "repeats of a share one value" true
    (platforms.(0) == platforms.(2) && platforms.(0) == platforms.(3));
  Alcotest.(check bool) "repeats of b share one value" true
    (platforms.(1) == platforms.(4));
  Alcotest.(check bool) "distinct texts stay distinct" true
    (platforms.(0) != platforms.(1));
  Alcotest.(check bool) "nothing is cached across frames" true
    ((decode ()).(0) != platforms.(0))

let repeated_invalid_platform_error () =
  let good = "chain\n2 3\n3 5\n" and bad = "chain\n2 x\n" in
  let expected =
    match Msts.Platform_format.of_string bad with
    | Error msg -> Error { Api.code = Api.Invalid_platform; message = "platform: " ^ msg }
    | Ok _ -> Alcotest.fail "the bad platform parsed"
  in
  let decode_error line =
    match Api.request_of_line line with
    | Ok _ -> Alcotest.fail "a frame with a bad platform decoded"
    | Error e -> Error e
  in
  Alcotest.(check bool) "single-problem op reports the parse error" true
    (decode_error
       (Json.to_string
          (Json.Obj [ ("op", Json.String "schedule"); ("platform", Json.String bad) ]))
    = expected);
  List.iter
    (fun texts ->
      Alcotest.(check bool) "batch reports the same first error" true
        (decode_error (batch_frame texts) = expected))
    [
      [ bad; bad ];
      [ good; bad; good; bad ];
      [ good; good; bad; "spider\n"; bad ];
    ]

(* A batch element reports its first bad field in the order a single
   problem does (platform, then tasks, then deadline), whether or not its
   platform text was decoded before in the same frame. *)
let batch_field_errors_in_order () =
  let good = Json.String "chain\n2 3\n3 5\n" in
  let bad_elements =
    [
      [ ("platform", Json.String "chain\n2 x\n"); ("tasks", Json.String "t") ];
      [ ("platform", Json.Int 5); ("tasks", Json.String "t") ];
      [ ("platform", good); ("tasks", Json.String "t"); ("deadline", Json.String "d") ];
      [ ("platform", good); ("deadline", Json.String "d"); ("tasks", Json.Int 3) ];
      [ ("platform", good); ("tasks", Json.Int 3); ("deadline", Json.Bool true) ];
    ]
  in
  let decode_error json =
    match Api.request_of_line (Json.to_string json) with
    | Ok _ -> Alcotest.fail "a frame with a bad field decoded"
    | Error e -> e
  in
  List.iter
    (fun fields ->
      let alone = decode_error (Json.Obj (("op", Json.String "schedule") :: fields)) in
      List.iter
        (fun before ->
          let batch =
            Json.Obj
              [
                ("op", Json.String "batch");
                ("problems", Json.List (before @ [ Json.Obj fields ]));
              ]
          in
          Alcotest.(check string) "same first error" alone.Api.message
            (decode_error batch).Api.message)
        [ []; [ Json.Obj [ ("platform", good); ("tasks", Json.Int 3) ] ] ])
    bad_elements

(* ---------- wire semantics of a request frame ---------- *)

(* What docs/API.md promises about a frame's members: their order is
   free, unknown ones are ignored, the first of a repeated one counts,
   names may be escaped, and a syntax error anywhere wins over any field
   error. *)

let chain_text = "chain\n2 3\n3 5\n"
let chain_json = Json.to_string (Json.String chain_text)

let decoded line =
  match Api.request_of_line line with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s did not decode: %s" line e.Api.message

let decode_error line =
  match Api.request_of_line line with
  | Ok _ -> Alcotest.failf "%s decoded" line
  | Error e -> e

let chain_problem tasks =
  Msts.Solve.problem ~tasks (Msts.Platform_format.of_string chain_text |> Result.get_ok)

let members_in_any_order () =
  (match
     decoded
       (Printf.sprintf {|{"problems":[{"tasks":3,"platform":%s}],"id":5,"op":"batch","v":1}|}
          chain_json)
   with
  | { Api.id = Some 5; trace = None; op = Api.Batch [| p |] } ->
      Alcotest.(check bool) "batch before op" true (p = chain_problem 3)
  | _ -> Alcotest.fail "batch with op after problems");
  match
    decoded
      (Printf.sprintf {|{"tasks":4,"trace":"t","platform":%s,"op":"schedule","v":1}|}
         chain_json)
  with
  | { Api.id = None; trace = Some "t"; op = Api.Schedule p } ->
      Alcotest.(check bool) "schedule fields before op" true (p = chain_problem 4)
  | _ -> Alcotest.fail "schedule with op and v last"

let unknown_members_ignored () =
  (match
     decoded
       {|{"op":"ping","extra":{"a":[1,2.5,{"b":null}],"c":"é"},"x":true,"id":2}|}
   with
  | { Api.id = Some 2; op = Api.Ping; _ } -> ()
  | _ -> Alcotest.fail "unknown top-level members changed the ping");
  match
    decoded
      (Printf.sprintf
         {|{"op":"batch","problems":[{"colour":[],"platform":%s,"size":{"w":1},"tasks":2}]}|}
         chain_json)
  with
  | { Api.op = Api.Batch [| p |]; _ } ->
      Alcotest.(check bool) "unknown element members ignored" true (p = chain_problem 2)
  | _ -> Alcotest.fail "unknown element members changed the batch"

let repeated_member_first_wins () =
  (match decoded {|{"op":"ping","op":"stats","id":1,"id":"x"}|} with
  | { Api.id = Some 1; op = Api.Ping; _ } -> ()
  | _ -> Alcotest.fail "a repeated top-level member: the first did not win");
  Alcotest.(check string) "a bad first occurrence is reported"
    "field \"id\" must be an integer"
    (decode_error {|{"id":"x","id":1,"op":"ping"}|}).Api.message;
  match
    decoded
      (Printf.sprintf
         {|{"op":"batch","problems":[{"platform":%s,"tasks":3,"platform":"garbage","tasks":"x"}]}|}
         chain_json)
  with
  | { Api.op = Api.Batch [| p |]; _ } ->
      Alcotest.(check bool) "repeated element members: first wins" true (p = chain_problem 3)
  | _ -> Alcotest.fail "a repeated platform inside an element"

let escaped_member_names () =
  (match decoded {|{"\u006fp":"ping","\u0069d":3}|} with
  | { Api.id = Some 3; op = Api.Ping; _ } -> ()
  | _ -> Alcotest.fail "escaped envelope names");
  (match
     decoded
       (Printf.sprintf {|{"op":"schedule","pl\u0061tform":%s,"t\u0061sks":2}|} chain_json)
   with
  | { Api.op = Api.Schedule p; _ } ->
      Alcotest.(check bool) "escaped field names" true (p = chain_problem 2)
  | _ -> Alcotest.fail "escaped field names");
  match
    decoded
      (Printf.sprintf
         {|{"op":"batch","problems":[{"platform":%s,"tasks":2},{"pl\u0061tform":"ch\u0061in\n2 3\n3 5\n","tasks":2}]}|}
         chain_json)
  with
  | { Api.op = Api.Batch [| p; q |]; _ } ->
      Alcotest.(check bool) "escaped element names" true (p = chain_problem 2);
      Alcotest.(check bool) "texts equal once unescaped share one problem" true (p == q)
  | _ -> Alcotest.fail "escaped element names"

let syntax_error_wins () =
  let expect_syntax line =
    let want =
      match Json.parse line with
      | Error msg -> "malformed frame: " ^ msg
      | Ok _ -> Alcotest.failf "%s parsed" line
    in
    let e = decode_error line in
    Alcotest.(check string) line want e.Api.message;
    Alcotest.(check bool) "bad_request" true (e.Api.code = Api.Bad_request)
  in
  List.iter expect_syntax
    [
      {|{"v":2,"op":"ping",}|};
      {|{"op":"schedule","platform":12,"tasks":3,}|};
      {|{"op":"nope","id":"x"} x|};
      {|{"op":"batch","problems":[{"tasks":3},{"platform":"chain\n2 3\n","tasks":1}],"x":[1 2]}|};
      {|{"op":"batch","problems":[7,{"platform":"a\q"}]}|};
      {|[1,{"op":"ping"},]|};
    ]

(* Integers are what the tree decoder took for Json.Int: a fraction, an
   exponent or a value beyond int makes a float, whatever it equals. *)
let integer_fields () =
  let session text =
    Api.request_of_line (Printf.sprintf {|{"op":"online-plan","session":%s}|} text)
  in
  List.iter
    (fun text ->
      match session text with
      | Error e ->
          Alcotest.(check string) text "field \"session\" must be an integer" e.Api.message
      | Ok _ -> Alcotest.failf "session %s decoded" text)
    [ "4.0"; "1e400"; "4e0"; "9999999999999999999"; "-4611686018427387905" ];
  List.iter
    (fun (text, want) ->
      match session text with
      | Ok { Api.op = Api.Online_plan { session }; _ } ->
          Alcotest.(check int) text want session
      | _ -> Alcotest.failf "session %s did not decode" text)
    [
      ("-0", 0); ("007", 7); ("999999999999999999", 999_999_999_999_999_999);
      ("4611686018427387903", max_int); ("-4611686018427387904", min_int);
    ]

let rejection_correlation () =
  let rejected line =
    match Api.request_or_rejection line with
    | Ok _ -> Alcotest.failf "%s decoded" line
    | Error { Api.id; trace; result = Error e } -> (id, trace, e.Api.code)
    | Error _ -> Alcotest.failf "%s rejected without an error" line
  in
  let check line want =
    Alcotest.(check bool) line true (rejected line = want)
  in
  check {|{"id":"7","trace":"t","op":"nope"}|} (None, Some "t", Api.Bad_request);
  check {|{"id":7,"trace":5,"op":"nope"}|} (Some 7, None, Api.Bad_request);
  check {|{"id":7.0,"trace":["t"],"op":"ping","platform":1}|} (None, None, Api.Bad_request);
  check {|{"v":2,"id":3,"trace":"x","op":"ping"}|} (Some 3, Some "x", Api.Unsupported_version);
  check {|{"trace":"a","trace":"b","id":1,"id":2,"v":"1"}|} (Some 1, Some "a", Api.Bad_request);
  check {|{"id":3,"trace":"x","op":"ping"|} (None, None, Api.Bad_request);
  check {|[{"id":3,"trace":"x"}]|} (None, None, Api.Bad_request);
  Alcotest.(check (option int)) "frame_id of a rejected frame" (Some 3)
    (Api.frame_id {|{"v":2,"id":3,"op":"ping"}|});
  Alcotest.(check (option int)) "frame_id of a malformed frame" None
    (Api.frame_id {|{"id":3,"op":"ping"|})

(* ---------- the reader-based decoder against the tree decoder ---------- *)

(* Batches drawn from a small pool, so elements repeat: equal ones must
   share one problem, and texts one platform. *)
let pooled_batch_gen =
  Gen.(
    list_size (int_range 1 3) problem_gen >>= fun pool ->
    let pool = Array.of_list pool in
    list_size (int_range 0 12)
      (triple (int_bound (Array.length pool - 1)) (opt (int_range 0 3)) (opt (int_range 0 3)))
    >|= fun picks ->
    Api.Batch
      (Array.of_list
         (List.map
            (fun (k, tasks, deadline) -> { (pool.(k)) with Msts.Solve.tasks; deadline })
            picks)))

let junk =
  [|
    Json.Int 7; Json.Int (-3); Json.String "x"; Json.Bool true; Json.Null; Json.Float 1.5;
    Json.List []; Json.Obj [ ("a", Json.Int 1) ]; Json.String "chain\n1 1\n";
    Json.String "batch"; Json.String "ping";
  |]

(* A request's tree reshaped the ways a client may write it, or get
   wrong: members of the frame and of batch elements shuffled, given
   values of other kinds, repeated with other values (before or after the
   original) and joined by unknown ones. *)
let reshape rng json =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let insert x l =
    let at = Random.State.int rng (List.length l + 1) in
    List.filteri (fun i _ -> i < at) l @ (x :: List.filteri (fun i _ -> i >= at) l)
  in
  let rec go depth = function
    | Json.Obj kvs when depth <= 2 ->
        let kvs =
          List.map
            (fun (k, v) ->
              (k, if Random.State.int rng 8 = 0 then pick junk else go (depth + 1) v))
            kvs
        in
        let kvs =
          if Random.State.bool rng then
            List.map snd
              (List.sort compare (List.map (fun kv -> (Random.State.bits rng, kv)) kvs))
          else kvs
        in
        let kvs =
          if kvs <> [] && Random.State.int rng 3 = 0 then
            insert (fst (pick (Array.of_list kvs)), pick junk) kvs
          else kvs
        in
        if Random.State.int rng 4 = 0 then insert ("extra", pick junk) kvs |> fun l -> Json.Obj l
        else Json.Obj kvs
    | Json.List items when depth <= 2 -> Json.List (List.map (go (depth + 1)) items)
    | v -> v
  in
  go 0 json

(* Compact printing with some letters of keys and strings spelled as \u
   escapes, chosen by the bits of [escape]. *)
let print_escaped ~escape json =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    String.iteri
      (fun i c ->
        match c with
        | ('a' .. 'z' | '_') when (escape lsr (i mod 24)) land 1 = 1 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c ->
            let quoted = Json.to_string (Json.String (String.make 1 c)) in
            Buffer.add_string buf (String.sub quoted 1 (String.length quoted - 2)))
      s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Json.Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            str k;
            Buffer.add_char buf ':';
            go v)
          kvs;
        Buffer.add_char buf '}'
    | Json.List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          items;
        Buffer.add_char buf ']'
    | Json.String s -> str s
    | leaf -> Buffer.add_string buf (Json.to_string leaf)
  in
  go json;
  Buffer.contents buf

(* Byte-level damage biased towards the bytes the reader branches on:
   truncation, deletion, insertion and replacement. *)
let damage rng line =
  let significant = "{}[]\",:\\ -.e0123456789tfnu" in
  let byte () =
    if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 128)
    else significant.[Random.State.int rng (String.length significant)]
  in
  let n = String.length line in
  if n = 0 then line
  else
    let at = Random.State.int rng n in
    let before = String.sub line 0 at and after = String.sub line (at + 1) (n - at - 1) in
    match Random.State.int rng 4 with
    | 0 -> before
    | 1 -> before ^ after
    | 2 -> before ^ String.make 1 (byte ()) ^ String.sub line at (n - at)
    | _ -> before ^ String.make 1 (byte ()) ^ after

let frame_of (request, seed, shape) =
  let rng = Random.State.make [| seed |] in
  let json = Result.get_ok (Json.parse (Api.request_to_line request)) in
  let json = if shape land 1 = 1 then reshape rng json else json in
  let escape = if shape land 2 = 2 then Random.State.bits rng else 0 in
  let line = print_escaped ~escape json in
  let rec hurt k line = if k = 0 then line else hurt (k - 1) (damage rng line) in
  hurt (if shape land 4 = 4 then 1 + Random.State.int rng 3 else 0) line

let differential_request_gen =
  Gen.(
    triple
      (map3
         (fun id trace op -> { Api.id; trace; op })
         (opt (int_range (-5) 1_000_000))
         trace_gen
         (frequency [ (3, op_gen); (2, pooled_batch_gen) ]))
      int (int_bound 7))

(* For each pair of problems: are they one value, and is their platform. *)
let sharing problems =
  Array.map
    (fun (p : Msts.Solve.problem) ->
      Array.map
        (fun (q : Msts.Solve.problem) -> (p == q, p.platform == q.platform))
        problems)
    problems

(* The first problem that is the same value as each one. *)
let first_equal problems =
  Array.map
    (fun p ->
      let rec first j = if problems.(j) == p then j else first (j + 1) in
      first 0)
    problems

(* The frame decodes as the tree decoder decodes it: the same request
   with the same sharing of batch problems, or the same error, offset
   and correlation; a batch's repeat map names each problem's first
   equal value, and other ops have none. *)
let same_as_reference line =
  let show = function
    | Ok r -> "Ok " ^ Api.request_to_line r
    | Error (r : Api.response) -> "Error " ^ Api.response_to_line r
  in
  let got = Api.request_or_rejection line
  and want = Api_reference.request_or_rejection line in
  let same =
    match (got, want) with
    | Ok (a, repeats), Ok b -> (
        a = b
        &&
        match (a.Api.op, b.Api.op) with
        | Api.Batch pa, Api.Batch pb ->
            sharing pa = sharing pb && repeats = first_equal pa
        | _ -> repeats = [||])
    | Error a, Error b -> a = b
    | _ -> false
  in
  (same && Api.request_of_line line = Api_reference.request_of_line line)
  || QCheck.Test.fail_reportf "got  %s\nwant %s" (show (Result.map fst got)) (show want)

let decoder_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"reader decoder = tree decoder on reshaped, escaped and damaged frames"
       (QCheck.make ~print:(fun x -> String.escaped (frame_of x)) differential_request_gen)
       (fun x -> same_as_reference (frame_of x)))

(* ---------- the batch decoder's element memo ---------- *)

(* Batch elements written out byte by byte, drawn with repetition from a
   small pool, so frames hold byte-identical repeats; near-repeats that
   differ only in the byte before the closing brace, or that extend an
   earlier element ("tasks":5} then "tasks":55}); one text spelled with
   escapes or extra whitespace; repeated and unknown members; and field
   and syntax errors after repeats. *)
let chain_a = {|"chain\n2 3\n3 5\n"|}
let chain_a_escaped = {|"\u0063hain\u000a2 3\n3 5\n"|}

(* Another text of chain_a's platform: a platform value of its own, with
   chain_a's fingerprint. *)
let chain_a_spaced = {|"chain\n2  3\n3 5\n"|}
let chain_b = {|"chain\n2 3\n3 5\n1 1\n"|}

let element_gen =
  Gen.(
    oneofl [ chain_a; chain_a_escaped; chain_b; {|"chain\n2 x\n"|}; "7" ]
    >>= fun platform ->
    oneofl
      [
        ""; {|,"tasks":5|}; {|,"tasks":55|}; {|,"tasks":6|}; {|,"tasks":"x"|};
        {|,"tasks":5,"tasks":6|}; {|,"deadline":7|}; {|,"tasks":5.0|};
      ]
    >>= fun objective ->
    oneofl [ ""; {|,"extra":[1,{"a":2}]|}; {|,"extra":[1,}|} ] >>= fun extra ->
    oneofl
      [
        Printf.sprintf {|{"platform":%s%s%s}|} platform objective extra;
        Printf.sprintf {|{ "platform" : %s%s%s }|} platform objective extra;
        Printf.sprintf {|{"z":0%s%s,"platform":%s}|} objective extra platform;
        Printf.sprintf {|{"platform":%s%s%s|} platform objective extra;
        "5";
      ])

(* Frames over a few well-formed elements, with an odd one drawn now and
   then: most frames decode, so the memo's hits are exercised, and the
   rest fail after repeats.  Two texts of one platform give distinct
   problem values with one fingerprint. *)
let memo_frame_gen =
  let good_elements =
    [
      Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a;
      Printf.sprintf {|{"platform":%s,"tasks":55}|} chain_a;
      Printf.sprintf {|{"platform":%s,"tasks":6}|} chain_a;
      Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a_escaped;
      Printf.sprintf {|{ "platform":%s,"tasks":5}|} chain_a;
      Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a_spaced;
      Printf.sprintf {|{"platform":%s,"deadline":9}|} chain_b;
    ]
  in
  let pick pool = Gen.map (fun k -> pool.(k)) (Gen.int_bound (Array.length pool - 1)) in
  Gen.(
    list_size (int_range 1 4) (oneofl good_elements) >>= fun good ->
    list_size (int_range 0 3) element_gen >>= fun odd ->
    let good = pick (Array.of_list good) in
    let element = if odd = [] then good else frequency [ (12, good); (1, pick (Array.of_list odd)) ] in
    list_size (int_range 0 60) element >>= fun elements ->
    bool >|= fun op_first ->
    let problems = String.concat "," elements in
    if op_first then Printf.sprintf {|{"v":1,"id":3,"op":"batch","problems":[%s]}|} problems
    else Printf.sprintf {|{"problems":[%s],"id":3,"op":"batch"}|} problems)

(* The shard over the decoder's repeat map, and over the map it derives
   itself, against the fingerprint-keyed reference coordinator
   (test/batch_reference.ml) on the same frames: the same keys, firsts,
   slots in the same order, outcomes, hits and misses, and the same LRU
   order after the probes and insertions, from caches warmed alike with
   every third problem and too small for the batch.  Frames that do not
   decode carry no map. *)
let shard_matches_batch_reference =
  to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"shard over decoded and derived repeat maps = reference coordinator"
       (QCheck.make ~print:String.escaped memo_frame_gen)
       (fun line ->
         match Api.request_or_rejection line with
         | Error _ -> true
         | Ok ({ Api.op = Api.Batch problems; _ }, repeats) ->
             let capacity = 3 in
             let warm = Array.of_list (List.filteri (fun i _ -> i mod 3 = 1) (Array.to_list problems)) in
             let warmed () =
               let cache = Msts.Batch.cache ~capacity in
               ignore (Msts.Batch.run ~jobs:1 ~cache ~solve:Api.guarded_solve warm);
               cache
             in
             let ref_cache = Msts.Lru.create ~capacity in
             let solve_all count request = Array.init count (fun slot -> Api.guarded_solve (request slot)) in
             (let rplan = Batch_reference.shard ref_cache warm in
              ignore
                (Batch_reference.assemble rplan
                   ~solved:
                     (solve_all (Batch_reference.shard_count rplan)
                        (Batch_reference.shard_request rplan))));
             let rplan = Batch_reference.shard ref_cache problems in
             let k = Batch_reference.shard_count rplan in
             let solved = solve_all k (Batch_reference.shard_request rplan) in
             let ref_outcomes, (hits, misses) = Batch_reference.assemble rplan ~solved in
             let ref_firsts =
               Array.mapi
                 (fun i -> function Batch_reference.Duplicate j -> j | Cached _ | Fresh _ -> i)
                 rplan.Batch_reference.resolutions
             in
             let ref_keys = List.map fst (Msts.Lru.to_list ref_cache) in
             let agrees what repeats =
               let cache = warmed () in
               let plan = Msts.Batch.shard ~cache ?repeats problems in
               let same_slots =
                 Msts.Batch.shard_count plan = k
                 && List.for_all
                      (fun slot ->
                        Msts.Batch.shard_request plan slot
                        == Batch_reference.shard_request rplan slot)
                      (List.init k Fun.id)
               in
               let outcomes, stats =
                 Msts.Batch.assemble plan ~jobs:1 ~solved ~wait_us:(Array.make k 0)
                   ~busy_us:(Array.make k 0)
               in
               (Msts.Batch.fingerprints plan = rplan.Batch_reference.fingerprints
               && Msts.Batch.firsts plan = ref_firsts
               && same_slots
               && Array.for_all2
                    (fun a b ->
                      match (a, b) with
                      | Ok p, Ok q -> Msts.Plan.equal p q
                      | Error e, Error f -> String.equal e f
                      | _ -> false)
                    outcomes ref_outcomes
               && stats.Msts.Batch.cache_hits = hits
               && stats.Msts.Batch.cache_misses = misses
               && Msts.Batch.cache_keys cache = ref_keys)
               || QCheck.Test.fail_reportf "the %s map disagrees with the reference" what
             in
             Array.length repeats = Array.length problems
             && agrees "decoder's" (Some repeats)
             && agrees "derived" None
         | Ok _ -> false))

let memo_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:1500
       ~name:"element memo = tree decoder on frames of repeats and near-repeats"
       (QCheck.make ~print:String.escaped memo_frame_gen)
       same_as_reference)

let batch_of elements =
  Printf.sprintf {|{"op":"batch","problems":[%s]}|} (String.concat "," elements)

let decoded_problems line =
  match Api.request_of_line line with
  | Ok { Api.op = Api.Batch problems; _ } -> problems
  | Ok _ -> Alcotest.fail "not a batch"
  | Error e -> Alcotest.failf "the frame did not decode: %s" e.Api.message

let memo_near_repeats () =
  let element tasks = Printf.sprintf {|{"platform":%s,"tasks":%s}|} chain_a tasks in
  let cases =
    [
      [ element "5"; element "6"; element "5"; element "6" ];
      [ element "5"; element "55"; element "5"; element "55" ];
      [ element "55"; element "5"; element "55"; element "5" ];
      [ element "5"; Printf.sprintf {|{"platform":%s}|} chain_a; element "5" ];
    ]
  in
  List.iter
    (fun elements ->
      let line = batch_of elements in
      ignore (same_as_reference line);
      let tasks = Array.map (fun p -> p.Msts.Solve.tasks) (decoded_problems line) in
      let want =
        List.map
          (fun e ->
            match Json.member "tasks" (Result.get_ok (Json.parse e)) with
            | Some (Json.Int n) -> Some n
            | _ -> None)
          elements
      in
      Alcotest.(check (list (option int))) "each element's own task count" want
        (Array.to_list tasks))
    cases

let memo_spellings_share () =
  let spellings =
    [
      Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a;
      Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a_escaped;
      Printf.sprintf {|{ "platform" : %s , "tasks" : 5 }|} chain_a;
      Printf.sprintf {|{"tasks":5,"platform":%s}|} chain_a;
    ]
  in
  let line = batch_of (spellings @ spellings) in
  ignore (same_as_reference line);
  let problems = decoded_problems line in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d is the first element's problem value" i)
        true (p == problems.(0)))
    problems

let memo_errors_after_repeats () =
  let good = Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a in
  let repeats = List.init 50 (fun _ -> good) in
  List.iter
    (fun (what, last) ->
      let line = batch_of (repeats @ [ last ] @ repeats) in
      ignore (same_as_reference line);
      match Api.request_of_line line with
      | Ok _ -> Alcotest.failf "%s decoded" what
      | Error _ -> ())
    [
      ("a syntax error", Printf.sprintf {|{"platform":%s,"tasks":5,}|} chain_a);
      ("a truncated repeat", Printf.sprintf {|{"platform":%s,"tasks":5|} chain_a);
      ("a field error", Printf.sprintf {|{"platform":%s,"tasks":"x"}|} chain_a);
      ("an invalid platform", {|{"platform":"chain\n2 x\n","tasks":5}|});
      ("a non-object", "5");
    ]

(* The lookup bound: 10k distinct elements that share a 64-byte prefix
   all hash to one bucket, whose cap (8 candidates, stated in api.ml)
   bounds the runs each element is compared with. *)
let memo_candidates_bounded () =
  let shared = String.concat "" (List.init 12 (fun _ -> {|1 1\n|})) in
  let n = 10_000 in
  let line =
    batch_of
      (List.init n (fun k ->
           Printf.sprintf {|{"platform":"chain\n%s","tasks":%d}|} shared (k + 1)))
  in
  Alcotest.(check bool) "the elements share a 64-byte prefix" true
    (String.length {|{"platform":"chain\n|} + String.length shared >= 64);
  let mem = Msts.Obs.Memory.create () in
  let problems =
    Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () -> decoded_problems line)
  in
  Alcotest.(check int) "every element decoded" n (Array.length problems);
  let counter = Msts.Obs.Memory.counter mem in
  Alcotest.(check int) "elements counted once per frame" n (counter "api.batch_elements");
  Alcotest.(check int) "no hits among distinct elements" 0 (counter "api.batch_memo_hits");
  let compared = counter "api.batch_memo_candidates" in
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates compared for %d elements: at most 8 each" compared n)
    true
    (compared <= 8 * n)

(* Objectives whose hashes collide ([tasks * 65599 + deadline] is the
   same for all) on one platform text: each element keeps its own values,
   equal ones still share a problem while their bucket has room, and the
   problems compared stay within the cap, 8 per element beside the 8
   recorded elements. *)
let memo_objective_collisions_bounded () =
  let n = 10_000 in
  let element k =
    Printf.sprintf {|{"platform":%s,"tasks":%d,"deadline":%d}|} chain_a k (1 - (65_599 * k))
  in
  let line = batch_of (List.init n (fun k -> element (k + 1)) @ [ element 1; element 1 ]) in
  let mem = Msts.Obs.Memory.create () in
  let problems =
    Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () -> decoded_problems line)
  in
  Array.iteri
    (fun i (p : Msts.Solve.problem) ->
      let k = if i < n then i + 1 else 1 in
      if p.tasks <> Some k || p.deadline <> Some (1 - (65_599 * k)) then
        Alcotest.failf "element %d decoded to other values" i)
    problems;
  Alcotest.(check bool) "repeats of a recorded problem share it" true
    (problems.(n) == problems.(0) && problems.(n + 1) == problems.(0));
  let compared = Msts.Obs.Memory.counter mem "api.batch_memo_candidates" in
  Alcotest.(check bool)
    (Printf.sprintf "%d compares for %d elements: at most 16 each" compared (n + 2))
    true
    (compared <= 16 * (n + 2))

let memo_counts_hits () =
  let good = Printf.sprintf {|{"platform":%s,"tasks":5}|} chain_a in
  let other = Printf.sprintf {|{"platform":%s,"tasks":6}|} chain_a in
  let mem = Msts.Obs.Memory.create () in
  ignore
    (Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) (fun () ->
         decoded_problems (batch_of [ good; other; good; good; other ])));
  let counter = Msts.Obs.Memory.counter mem in
  Alcotest.(check int) "elements" 5 (counter "api.batch_elements");
  Alcotest.(check int) "hits: the three repeats" 3 (counter "api.batch_memo_hits")

let suites =
  [
    ( "api.wire",
      [
        case "members in any order: op after problems, v last" members_in_any_order;
        case "unknown members are ignored" unknown_members_ignored;
        case "a repeated member: the first occurrence wins" repeated_member_first_wins;
        case "escaped member names" escaped_member_names;
        case "a syntax error wins over an earlier field error" syntax_error_wins;
        case "integers are the tree decoder's Int, not Float" integer_fields;
        case "rejections correlate only an Int id and a String trace"
          rejection_correlation;
        decoder_matches_reference;
        memo_matches_reference;
        shard_matches_batch_reference;
        case "element memo: near-repeats keep their own values" memo_near_repeats;
        case "element memo: spellings of one element share its problem"
          memo_spellings_share;
        case "element memo: errors after repeats match the tree decoder"
          memo_errors_after_repeats;
        case "element memo: candidates per element within the cap"
          memo_candidates_bounded;
        case "element memo: colliding objectives within the cap"
          memo_objective_collisions_bounded;
        case "element memo: hits counted once per frame" memo_counts_hits;
      ] );
    ( "api.codecs",
      [
        request_roundtrip;
        response_roundtrip;
        envelope_matches_reference;
        truncated_frames_rejected;
        garbage_never_raises;
        case "unknown version rejected, absent version accepted"
          unknown_version_rejected;
        case "error-code names are bijective" error_code_names_bijective;
        case "Msts. prefix convention maps to invalid_argument"
          prefix_convention_classified;
        case "workload names round-trip" workload_names_roundtrip;
        case "trace context decoded, echoed, never injected"
          trace_context_echoed;
        case "bare metrics decodes as the control op" metrics_op_decoding;
        case "batch decode shares repeated platforms"
          batch_decode_shares_platforms;
        case "repeated invalid platform: same first error"
          repeated_invalid_platform_error;
        case "batch field errors keep their order"
          batch_field_errors_in_order;
      ] );
    ( "api.exec",
      (exec_matches_solve :: negative_counts_cases)
      @ [
        case "events above the replay budget: one answer" events_over_budget_refused;
        response_line_matches_tree;
        batched_line_matches_tree;
        repeated_batched_line_matches_tree;
        case "engine wire responses = direct exec bytes"
          engine_wire_equals_direct;
        case "admission control: overload, drain, shutting down"
          engine_admission_control;
        case "malformed frames answered, id echoed"
          engine_malformed_frames_answered;
        case "engine echoes the trace on every path" engine_echoes_trace;
        case "metrics op answers the live exposition"
          engine_serves_metrics_dump;
      ] );
  ]
