(* The overlapped serve engine: deficit-round-robin fairness across
   connections, admission caps per connection, batch sharding with
   byte-identical assembly, and the drain guarantee with solves
   mid-flight on worker domains. *)

open Helpers
module Api = Msts.Api
module Engine = Msts_serve.Engine
module Json = Msts.Json

let chain_platform = Msts.Platform_format.Chain_platform figure2_chain

let schedule ?(tasks = 4) () =
  Api.Schedule (Msts.Solve.problem ~tasks chain_platform)

let request ?id ?trace op = { Api.id; trace; op }

(* A config that launches exactly one unit per dispatch, so the
   scheduler's pick order is the delivery order — fully deterministic on
   a jobs=1 (inline) pool. *)
let lockstep_config =
  { Engine.default_config with cache_capacity = 4; max_batch = 1 }

(* ---------- fairness ---------- *)

(* One greedy pipelining connection floods 10 requests before two polite
   connections submit one each.  Deficit round robin must serve the
   polite requests on the 2nd and 3rd dispatch — under FIFO they would
   be 11th and 12th. *)
let greedy_cannot_starve_polite () =
  let engine = Engine.create lockstep_config in
  let order = ref [] in
  let submit conn tag tasks =
    engine_submit engine ~conn
      ~reply:(fun line ->
        match (response_of_frame line).Api.result with
        | Ok _ -> order := tag :: !order
        | Error e -> Alcotest.failf "%s failed: %s" tag e.Api.message)
      (request ~trace:tag (schedule ~tasks ()))
  in
  let greedy = Engine.open_conn engine in
  let polite1 = Engine.open_conn engine in
  let polite2 = Engine.open_conn engine in
  for i = 1 to 10 do
    submit greedy (Printf.sprintf "greedy-%d" i) i
  done;
  submit polite1 "polite-1" 11;
  submit polite2 "polite-2" 12;
  Alcotest.(check int) "all queued" 12 (Engine.pending engine);
  (* three dispatches: one unit each, round-robin over the three conns *)
  for _ = 1 to 3 do
    Alcotest.(check int) "one delivery per dispatch" 1
      (Engine.dispatch engine)
  done;
  (match List.rev !order with
  | [ "greedy-1"; "polite-1"; "polite-2" ] -> ()
  | got ->
      Alcotest.failf "unfair pick order: %s" (String.concat ", " got));
  ignore (Engine.drain engine);
  Alcotest.(check int) "everyone answered" 12 (List.length !order);
  Engine.shutdown engine

(* The polite request's queue wait, measured in dispatch turns, is
   bounded by the number of connections — not by the greedy backlog. *)
let polite_wait_bounded_by_conns () =
  let engine = Engine.create lockstep_config in
  let greedy = Engine.open_conn engine in
  let polite = Engine.open_conn engine in
  let answered = ref false in
  for i = 1 to 50 do
    engine_submit engine ~conn:greedy
      ~reply:(fun _ -> ())
      (request (schedule ~tasks:(i mod 13) ()))
  done;
  engine_submit engine ~conn:polite
    ~reply:(fun _ -> answered := true)
    (request (schedule ~tasks:14 ()));
  let turns = ref 0 in
  while not !answered do
    incr turns;
    if !turns > 3 then Alcotest.fail "polite request starved";
    ignore (Engine.dispatch engine)
  done;
  Alcotest.(check int) "answered on the second turn" 2 !turns;
  ignore (Engine.drain engine);
  Engine.shutdown engine

(* ---------- per-connection admission ---------- *)

let per_conn_queue_cap () =
  let engine =
    Engine.create
      { lockstep_config with max_queue_per_conn = 2; queue_cap = 100 }
  in
  let flooder = Engine.open_conn engine in
  let other = Engine.open_conn engine in
  let errors = ref [] in
  let submit conn =
    engine_submit engine ~conn
      ~reply:(fun line ->
        match (response_of_frame line).Api.result with
        | Error e -> errors := e :: !errors
        | Ok _ -> ())
      (request (schedule ()))
  in
  submit flooder;
  submit flooder;
  submit flooder (* third on one conn: rejected *);
  (match !errors with
  | [ { Api.code = Api.Overloaded; message; _ } ] ->
      Alcotest.(check bool) "per-conn message" true
        (String.length message >= 10 && String.sub message 0 10 = "connection")
  | _ -> Alcotest.fail "expected exactly one per-connection rejection");
  submit other (* a different conn still has room *);
  Alcotest.(check int) "only the flooder bounced" 1 (List.length !errors);
  Alcotest.(check int) "three requests queued" 3 (Engine.pending engine);
  ignore (Engine.drain engine);
  Engine.shutdown engine

(* ---------- batch sharding ---------- *)

let batch_op n =
  Api.Batch
    (Array.init n (fun i ->
         Msts.Solve.problem ~tasks:(2 + (i mod 4)) chain_platform))

let ask_engine engine frame =
  let got = ref None in
  Engine.handle_line engine ~reply:(fun l -> got := Some l) frame;
  ignore (Engine.drain engine);
  match !got with
  | Some line -> line
  | None -> Alcotest.fail "engine never replied"

(* The sharded path must produce the exact bytes of the jobs=1 path:
   same outcomes, same hit/miss accounting, regardless of worker count
   or completion order. *)
let sharded_batch_bytes_stable_across_jobs () =
  let frame =
    Api.request_to_line (request ~id:7 (batch_op 9))
  in
  let run jobs =
    let engine =
      Engine.create { Engine.default_config with jobs; cache_capacity = 8 }
    in
    let line = ask_engine engine frame in
    Engine.shutdown engine;
    line
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d batch reply = jobs=1 bytes" jobs)
        reference (run jobs))
    [ 2; 4 ]

(* A fully cached batch (every problem a duplicate or a prior solve)
   takes the zero-shard fast path and still answers. *)
let cached_batch_answers () =
  let engine =
    Engine.create { Engine.default_config with cache_capacity = 16 }
  in
  let first = ask_engine engine (Api.request_to_line (request (batch_op 5))) in
  let second = ask_engine engine (Api.request_to_line (request (batch_op 5))) in
  let field line name =
    match Api.response_of_line line with
    | Ok { Api.result = Ok (Json.Obj fields); _ } -> (
        match List.assoc_opt "cache" fields with
        | Some (Json.Obj cache) -> List.assoc_opt name cache
        | _ -> None)
    | _ -> None
  in
  (match field first "misses" with
  | Some (Json.Int m) ->
      Alcotest.(check bool) "cold batch solves something" true (m > 0)
  | _ -> Alcotest.fail "cold batch reply unreadable");
  (match field second "misses" with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "warm batch must be all hits");
  Engine.shutdown engine

(* One connection's big batch must not head-of-line-block another
   connection's singleton: the singleton lands before the batch reply. *)
let batch_interleaves_with_singletons () =
  let engine =
    Engine.create { Engine.default_config with cache_capacity = 32 }
  in
  let batcher = Engine.open_conn engine in
  let single = Engine.open_conn engine in
  let order = ref [] in
  engine_submit engine ~conn:batcher
    ~reply:(fun _ -> order := "batch" :: !order)
    (request (batch_op 8));
  engine_submit engine ~conn:single
    ~reply:(fun _ -> order := "singleton" :: !order)
    (request (schedule ~tasks:9 ()));
  ignore (Engine.drain engine);
  (match List.rev !order with
  | [ "singleton"; "batch" ] -> ()
  | got -> Alcotest.failf "wrong order: %s" (String.concat ", " got));
  Engine.shutdown engine

(* ---------- stats surface ---------- *)

let stats_exposes_fairness_state () =
  let engine = Engine.create lockstep_config in
  let conn = Engine.open_conn engine in
  engine_submit engine ~conn ~reply:(fun _ -> ()) (request (schedule ()));
  match serve_stats engine with
  | Json.Obj fields ->
      (match List.assoc_opt "inflight" fields with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "stats lost the inflight count");
      (match List.assoc_opt "connections" fields with
      | Some (Json.List conns) ->
          Alcotest.(check bool) "default + opened conn listed" true
            (List.length conns >= 2);
          List.iter
            (fun c ->
              match c with
              | Json.Obj cf ->
                  List.iter
                    (fun key ->
                      if not (List.mem_assoc key cf) then
                        Alcotest.failf "connection stats lost %s" key)
                    [
                      "id"; "queued_units"; "queued_requests"; "deficit";
                      "inflight"; "admitted"; "delivered"; "queue_wait_us";
                    ]
              | _ -> Alcotest.fail "connection entry not an object")
            conns
      | _ -> Alcotest.fail "stats lost the connections list");
      ignore (Engine.drain engine);
      Engine.shutdown engine
  | _ -> Alcotest.fail "stats payload not an object"

(* ---------- drain with worker domains mid-flight ---------- *)

(* Launch real solves onto a 4-domain pool, then stop and drain while
   they are executing: every admitted frame must still be answered
   exactly once — the SIGTERM guarantee, minus the sockets. *)
let drain_answers_inflight_worker_solves () =
  let engine =
    Engine.create
      { Engine.default_config with jobs = 4; cache_capacity = 64 }
  in
  let conn_a = Engine.open_conn engine in
  let conn_b = Engine.open_conn engine in
  let replies = ref 0 in
  let reply line =
    (match (response_of_frame line).Api.result with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "drained request failed: %s" e.Api.message);
    incr replies
  in
  for i = 0 to 7 do
    engine_submit engine
      ~conn:(if i land 1 = 0 then conn_a else conn_b)
      ~reply
      (request (schedule ~tasks:(3 + i) ()))
  done;
  engine_submit engine ~conn:conn_a ~reply (request (batch_op 6));
  (* one non-blocking turn: units are now on the worker domains *)
  ignore (Engine.dispatch engine);
  Alcotest.(check bool) "work is in flight or queued" true
    (Engine.inflight engine > 0 || Engine.pending engine > 0);
  Engine.stop engine;
  let drained = Engine.drain engine in
  Alcotest.(check int) "every frame answered" 9 !replies;
  Alcotest.(check int) "nothing dropped in flight" 9
    (Engine.served engine);
  Alcotest.(check bool) "drain delivered the backlog" true (drained > 0);
  Alcotest.(check int) "no units left" 0 (Engine.inflight engine);
  Alcotest.(check int) "no requests left" 0 (Engine.pending engine);
  Engine.shutdown engine

(* A closed connection's queued units are dropped unlaunched: no solve
   runs for them, the engine's and the other connection's counts stay
   consistent, and drain terminates. *)
let close_conn_purges_queued_work () =
  let mem = Msts.Obs.Memory.create () in
  Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) @@ fun () ->
  let engine = Engine.create lockstep_config in
  let gone = Engine.open_conn engine in
  let stays = Engine.open_conn engine in
  let answered = ref [] in
  let submit conn tag op =
    engine_submit engine ~conn ~reply:(fun _ -> answered := tag :: !answered)
      (request op)
  in
  for i = 1 to 3 do
    submit gone "gone" (schedule ~tasks:i ())
  done;
  submit gone "gone" (batch_op 5) (* four distinct problems: four shards *);
  submit stays "stays" (schedule ~tasks:9 ());
  Alcotest.(check int) "one unit per dispatch" 1 (Engine.dispatch engine);
  let solves () = Msts.Obs.Memory.counter mem "pool.solves" in
  Alcotest.(check int) "one solve so far" 1 (solves ());
  Engine.close_conn engine gone;
  Alcotest.(check int) "six units purged" 6
    (Msts.Obs.Memory.counter mem "serve.purged");
  Alcotest.(check int) "only the open conn's request pending" 1
    (Engine.pending engine);
  Alcotest.(check bool) "still runnable" true (Engine.runnable engine);
  ignore (Engine.drain engine);
  Alcotest.(check int) "purged work never solved" 2 (solves ());
  Alcotest.(check (list string)) "replies" [ "stays"; "gone" ] !answered;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending engine);
  Alcotest.(check bool) "nothing runnable" false (Engine.runnable engine);
  Engine.shutdown engine;
  (* On worker domains: a batch whose first shard is in flight when its
     connection closes loses its queued shards; the in-flight one
     finishes, the batch is never assembled, and drain terminates. *)
  let engine =
    Engine.create { Engine.default_config with jobs = 2; max_batch = 1 }
  in
  let gone = Engine.open_conn engine in
  let replies = ref 0 in
  engine_submit engine ~conn:gone ~reply:(fun _ -> incr replies)
    (request (batch_op 8));
  ignore (Engine.dispatch engine);
  (* [dispatch] collects again after launching, so a worker that already
     finished the first shard may have been collected: at most one unit
     is in flight, and the batch's other shards stay queued either way *)
  Alcotest.(check bool) "at most the first shard launched" true
    (Engine.inflight engine <= 1);
  Alcotest.(check int) "rest of the batch queued" 1 (Engine.pending engine);
  Engine.close_conn engine gone;
  Alcotest.(check int) "batch no longer pending" 0 (Engine.pending engine);
  Alcotest.(check int) "drain delivers nothing" 0 (Engine.drain engine);
  Alcotest.(check int) "no reply" 0 !replies;
  Alcotest.(check int) "no units left" 0 (Engine.inflight engine);
  Engine.shutdown engine

(* ---------- the socket loop ---------- *)

let client_names_a_missing_socket () =
  match Msts_serve.Client.connect "/nonexistent/msts.sock" with
  | Ok _ -> Alcotest.fail "connected to a missing socket"
  | Error msg ->
      Alcotest.(check bool) msg true
        (String.starts_with ~prefix:"cannot connect to /nonexistent/msts.sock: " msg)

(* Read frames until the daemon closes the connection, giving up after
   [timeout] seconds without a byte. *)
let read_frames ?(timeout = 10.0) fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> Alcotest.fail "no reply and no close from the daemon"
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
  in
  go ();
  List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf))

let send_all fd line =
  let line = line ^ "\n" in
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring fd line off (String.length line - off))
  in
  go 0

(* A client that sends its frames and then shuts down its write end
   still gets every reply before the daemon closes the connection. *)
let half_closed_client_gets_replies () =
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "msts-half-close-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (Msts_serve.Server.default_config ~socket_path) with quiet = true }
  in
  let server = Domain.spawn (fun () -> Msts_serve.Server.run cfg) in
  let rec await_socket tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else begin
      Unix.sleepf 0.02;
      await_socket (tries - 1)
    end
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    fd
  in
  let exchange frames =
    let fd = connect () in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        List.iter (fun op -> send_all fd (Api.request_to_line (request op))) frames;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        read_frames fd)
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (exchange [ Api.Shutdown ]) with _ -> ());
      ignore (Domain.join server))
    (fun () ->
      await_socket 500;
      (match exchange [ schedule ~tasks:9 () ] with
      | [ frame ] -> (
          match (response_of_frame frame).Api.result with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "schedule failed: %s" e.Api.message)
      | frames ->
          Alcotest.failf "schedule alone: %d replies, expected 1"
            (List.length frames));
      Alcotest.(check int) "ping then two schedules: every reply" 3
        (List.length
           (exchange [ Api.Ping; schedule ~tasks:5 (); schedule ~tasks:7 () ])))

let suites =
  [
    ( "serve.fairness",
      [
        case "greedy pipeliner cannot starve polite conns"
          greedy_cannot_starve_polite;
        case "polite wait bounded by conn count, not backlog"
          polite_wait_bounded_by_conns;
        case "per-connection queue cap" per_conn_queue_cap;
      ] );
    ( "serve.sharding",
      [
        case "batch reply bytes stable across jobs"
          sharded_batch_bytes_stable_across_jobs;
        case "fully cached batch answers via the fast path"
          cached_batch_answers;
        case "batch interleaves with other conns' singletons"
          batch_interleaves_with_singletons;
      ] );
    ( "serve.lifecycle",
      [
        case "stats exposes inflight and per-conn scheduler state"
          stats_exposes_fairness_state;
        case "drain answers solves mid-flight on worker domains"
          drain_answers_inflight_worker_solves;
        case "closing a connection purges its queued units"
          close_conn_purges_queued_work;
        case "a half-closed client still gets every reply"
          half_closed_client_gets_replies;
        case "the client names a socket it cannot reach" client_names_a_missing_socket;
      ] );
  ]
