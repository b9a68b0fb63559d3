module Api = Msts.Api
module Obs = Msts.Obs
module Json = Msts.Json

type config = {
  jobs : int;
  cache_capacity : int;
  queue_cap : int;
  timeout_us : int;
  max_batch : int;
  slow_log : int;
  max_queue_per_conn : int;
  quantum : int;
  max_inflight : int;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 256;
    queue_cap = 1024;
    timeout_us = 0;
    max_batch = 32;
    slow_log = 16;
    max_queue_per_conn = 256;
    quantum = 1;
    max_inflight = 0;
  }

(* One connection's scheduling state: a FIFO of work units and the
   deficit-round-robin bookkeeping.  [cid 0] is the engine's default
   connection, used by callers that never open one. *)
type conn = {
  cid : int;
  q : unit_task Queue.t;
  queue_wait : Obs.Histogram.t; (* per-request admission-to-launch wait *)
  mutable deficit : int;
  mutable active : bool; (* currently in the round-robin ring *)
  mutable open_ : bool;
  mutable queued_reqs : int; (* requests with units still queued *)
  mutable c_inflight : int; (* units running on the pool *)
  mutable admitted : int;
  mutable delivered : int;
}

and item = {
  request : Api.request;
  reply : string -> unit;
  enqueued_us : int;
  iconn : conn;
}

(* The schedulable grain.  A singleton request is one [Whole] unit; a
   [batch] request is sharded at admission into one [Shard] per distinct
   uncached problem (or a single [Finish] when everything was cached),
   so one big batch interleaves with other connections' units. *)
and unit_task =
  | Whole of item
  | Shard of batch_job * int
  | Finish of batch_job

and batch_job = {
  b_item : item;
  b_problems : Api.problem array;
  plan : Msts.Batch.plan;
  solved : Msts.Batch.outcome array;
  wait_us : int array;
  busy_us : int array;
  b_scope : int;
  b_label : string;
  mutable remaining : int; (* shards not yet completed *)
  mutable launched : int;
  mutable cancelled : bool; (* timed out before the first launch *)
  mutable b_queued_units : int;
  mutable first_launch_us : int;
  mutable first_picked_us : int;
  mutable last_done_us : int;
}

(* What a worker hands back through the ticket: the finished wire frame,
   timestamped on the worker so [request.solve_us] (the solve and the
   writing of its reply) survives the move off the I/O domain. *)
type whole_done = {
  w_line : string;
  w_ok : bool;
  w_stats : Msts.Batch.stats option;
  w_picked_us : int;
  w_done_us : int;
}

type shard_done = {
  s_outcome : Msts.Batch.outcome;
  s_picked_us : int;
  s_done_us : int;
}

type flight =
  | F_whole of whole_flight
  | F_shard of shard_flight

and whole_flight = {
  w_item : item;
  w_scope : int;
  w_label : string;
  w_op : string;
  w_launched_us : int;
  w_ticket : whole_done Msts.Pool.ticket;
}

and shard_flight = {
  s_job : batch_job;
  s_slot : int;
  s_launched_us : int;
  s_ticket : shard_done Msts.Pool.ticket;
}

type slow_entry = {
  trace_label : string;
  op : string;
  queue_wait_us : int;
  solve_us : int;
  encode_us : int;
  total_us : int;
}

type t = {
  cfg : config;
  pool : Msts.Pool.t;
  cache : Msts.Batch.cache;
  conns : (int, conn) Hashtbl.t;
  ring : int Queue.t; (* active cids, deficit-round-robin order *)
  default_conn : conn;
  mutable next_cid : int;
  mutable queued_requests : int;
  mutable queued_units : int;
  mutable inflight : flight list; (* launch order (oldest first) *)
  mutable inflight_count : int;
  online : Msts_online.Service.t;
  mutable stopping : bool;
  mutable served : int;
  mutable rejected : int;
  mutable timeouts : int;
  (* Request-latency breakdown, maintained engine-side (no Obs sink
     required) so Stats and the metrics exposition always carry live
     p50/p99s.  [metrics] is the engine's own aggregating sink; the
     Server tees it into whatever sink stack it installs, giving the
     exposition its counter/histogram families. *)
  metrics : Obs.Memory.t;
  req_queue_wait : Obs.Histogram.t;
  req_solve : Obs.Histogram.t;
  req_encode : Obs.Histogram.t;
  mutable slow : slow_entry list; (* sorted by total_us desc, <= slow_log *)
  mutable assigned : int; (* engine-assigned trace labels for traceless requests *)
}

let make_conn cid =
  {
    cid;
    q = Queue.create ();
    queue_wait = Obs.Histogram.create ();
    deficit = 0;
    active = false;
    open_ = true;
    queued_reqs = 0;
    c_inflight = 0;
    admitted = 0;
    delivered = 0;
  }

let create cfg =
  if cfg.jobs < 1 then
    invalid_arg "Msts_serve.Engine.create: jobs must be >= 1";
  if cfg.cache_capacity < 1 then
    invalid_arg "Msts_serve.Engine.create: cache_capacity must be >= 1";
  if cfg.queue_cap < 1 then
    invalid_arg "Msts_serve.Engine.create: queue_cap must be >= 1";
  if cfg.max_batch < 1 then
    invalid_arg "Msts_serve.Engine.create: max_batch must be >= 1";
  if cfg.slow_log < 0 then
    invalid_arg "Msts_serve.Engine.create: slow_log must be >= 0";
  if cfg.max_queue_per_conn < 1 then
    invalid_arg "Msts_serve.Engine.create: max_queue_per_conn must be >= 1";
  if cfg.quantum < 1 then
    invalid_arg "Msts_serve.Engine.create: quantum must be >= 1";
  if cfg.max_inflight < 0 then
    invalid_arg "Msts_serve.Engine.create: max_inflight must be >= 0";
  let pool = Msts.Pool.create ~jobs:cfg.jobs () in
  (* Materialise the completion pipe up front so no completion can
     race the server's first look at {!wakeup_fd}. *)
  ignore (Msts.Pool.completion_fd pool);
  let default_conn = make_conn 0 in
  let conns = Hashtbl.create 16 in
  Hashtbl.replace conns 0 default_conn;
  {
    cfg;
    pool;
    cache = Msts.Batch.cache ~capacity:cfg.cache_capacity;
    conns;
    ring = Queue.create ();
    default_conn;
    next_cid = 0;
    queued_requests = 0;
    queued_units = 0;
    inflight = [];
    inflight_count = 0;
    online = Msts_online.Service.create ();
    stopping = false;
    served = 0;
    rejected = 0;
    timeouts = 0;
    metrics = Obs.Memory.create ~max_events:0 ();
    req_queue_wait = Obs.Histogram.create ();
    req_solve = Obs.Histogram.create ();
    req_encode = Obs.Histogram.create ();
    slow = [];
    assigned = 0;
  }

let pending t = t.queued_requests
let inflight t = t.inflight_count
let stopping t = t.stopping
let served t = t.served
let stop t = t.stopping <- true
let metrics_sink t = Obs.Memory.sink t.metrics
let wakeup_fd t = Msts.Pool.completion_fd t.pool

let max_inflight t =
  if t.cfg.max_inflight > 0 then t.cfg.max_inflight
  else 2 * Msts.Pool.jobs t.pool

let runnable t = t.queued_units > 0 && t.inflight_count < max_inflight t

(* ---------- connection lifecycle ---------- *)

let open_conn t =
  t.next_cid <- t.next_cid + 1;
  let c = make_conn t.next_cid in
  Hashtbl.replace t.conns c.cid c;
  c

(* A closed connection's record is forgotten once its in-flight units
   are collected. *)
let maybe_forget t c =
  if
    (not c.open_) && c.cid <> 0
    && Queue.is_empty c.q
    && c.c_inflight = 0
  then Hashtbl.remove t.conns c.cid

(* Account one request leaving the queue (its last queued unit popped). *)
let request_dequeued t c =
  t.queued_requests <- t.queued_requests - 1;
  c.queued_reqs <- c.queued_reqs - 1

(* Nobody is left to read the replies of a closed connection's queued
   units, so they are dropped unlaunched.  A batch with shards in flight
   never reaches [remaining = 0] and is never assembled.  The ring may
   still hold the cid; the pump skips it like any emptied queue. *)
let close_conn t c =
  c.open_ <- false;
  let purged = Queue.length c.q in
  Queue.iter
    (function
      | Whole _ -> request_dequeued t c
      | Shard (job, _) | Finish job ->
          job.b_queued_units <- job.b_queued_units - 1;
          if job.b_queued_units = 0 then request_dequeued t c)
    c.q;
  Queue.clear c.q;
  t.queued_units <- t.queued_units - purged;
  if purged > 0 then Obs.count ~n:purged "serve.purged";
  maybe_forget t c

(* ---------- bookkeeping helpers ---------- *)

let note_slow t e =
  if t.cfg.slow_log > 0 then begin
    let rec insert = function
      | [] -> [ e ]
      | x :: rest when e.total_us > x.total_us -> e :: x :: rest
      | x :: rest -> x :: insert rest
    in
    let merged = insert t.slow in
    t.slow <-
      (if List.length merged > t.cfg.slow_log then
         List.filteri (fun i _ -> i < t.cfg.slow_log) merged
       else merged)
  end

let slow_entry_json e =
  Json.Obj
    [
      ("trace", Json.String e.trace_label);
      ("op", Json.String e.op);
      ("queue_wait_us", Json.Int e.queue_wait_us);
      ("solve_us", Json.Int e.solve_us);
      ("encode_us", Json.Int e.encode_us);
      ("total_us", Json.Int e.total_us);
    ]

let conn_json c =
  Json.Obj
    [
      ("id", Json.Int c.cid);
      ("open", Json.Bool c.open_);
      ("queued_units", Json.Int (Queue.length c.q));
      ("queued_requests", Json.Int c.queued_reqs);
      ("deficit", Json.Int c.deficit);
      ("inflight", Json.Int c.c_inflight);
      ("admitted", Json.Int c.admitted);
      ("delivered", Json.Int c.delivered);
      ("queue_wait_us", Obs.Histogram.to_json c.queue_wait);
    ]

let connections_json t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.sort (fun a b -> compare a.cid b.cid)
  |> List.map conn_json

let stats_json t =
  Json.Obj
    [
      ("version", Json.Int Api.version);
      ("jobs", Json.Int (Msts.Pool.jobs t.pool));
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.Int (Msts.Batch.cache_capacity t.cache));
            ("length", Json.Int (Msts.Batch.cache_length t.cache));
          ] );
      ("queue", Json.Int t.queued_requests);
      ("inflight", Json.Int t.inflight_count);
      ("online_sessions", Json.Int (Msts_online.Service.sessions t.online));
      ("served", Json.Int t.served);
      ("rejected", Json.Int t.rejected);
      ("stopping", Json.Bool t.stopping);
      ( "request",
        Json.Obj
          [
            ("queue_wait_us", Obs.Histogram.to_json t.req_queue_wait);
            ("solve_us", Obs.Histogram.to_json t.req_solve);
            ("encode_us", Obs.Histogram.to_json t.req_encode);
          ] );
      ("connections", Json.List (connections_json t));
      ("slow_requests", Json.List (List.map slow_entry_json t.slow));
    ]

let exposition t =
  (* The teed Memory sink carries every counter/histogram emitted on the
     server domain (serve.*, online.*, and whatever the solves emit).
     The request.* breakdown is rendered from the engine-side histograms
     instead — they are exact even when no sink is installed — so the
     Memory copies of those names are excluded to keep families unique. *)
  let request_name n =
    String.length n >= 8 && String.sub n 0 8 = "request."
  in
  let histograms =
    List.filter (fun (n, _) -> not (request_name n)) (Obs.Memory.histograms t.metrics)
    @ [
        ("request.queue_wait_us", t.req_queue_wait);
        ("request.solve_us", t.req_solve);
        ("request.encode_us", t.req_encode);
      ]
  in
  let gauges =
    [
      ("serve.queue_depth", t.queued_requests);
      ("serve.inflight", t.inflight_count);
      ("serve.online_sessions", Msts_online.Service.sessions t.online);
      ("serve.cache_entries", Msts.Batch.cache_length t.cache);
      ("serve.cache_capacity", Msts.Batch.cache_capacity t.cache);
      ("serve.draining", if t.stopping then 1 else 0);
    ]
  in
  Obs.Prometheus.render
    ~counters:(Obs.Memory.counters t.metrics)
    ~gauges ~histograms ()

(* The synchronous solver: used by control-op exec (which never solves)
   and, crucially, by [Whole] thunks *on the worker domain* — an inline
   jobs=1 run over the shared cache, so a worker never re-enters the
   pool it is part of. *)
let inline_solver t problems =
  Msts.Batch.run ~jobs:1 ~cache:t.cache ~solve:Api.guarded_solve problems

(* Every response funnels through here: the one place that counts. *)
let deliver t c reply ~ok line =
  t.served <- t.served + 1;
  c.delivered <- c.delivered + 1;
  Obs.count "serve.responses";
  if not ok then Obs.count "serve.errors";
  reply line

(* Responses echo the client's trace context (or nothing): the engine
   never injects its internally assigned labels into the wire, so
   trace-less clients get byte-identical frames. *)
let reply_line item result =
  Api.response_line ~id:item.request.Api.id ~trace:item.request.Api.trace
    result

let answer t item result =
  deliver t item.iconn item.reply ~ok:(Result.is_ok result) (reply_line item result)

(* Online operations answer with a ready payload tree. *)
let answer_json t item result =
  deliver t item.iconn item.reply ~ok:(Result.is_ok result)
    (Api.response_to_line
       { Api.id = item.request.Api.id; trace = item.request.Api.trace; result })

(* The telemetry label for a request: the client's trace context when
   supplied, an engine-assigned "r<n>" otherwise. *)
let trace_label t (request : Api.request) =
  match request.Api.trace with
  | Some s -> s
  | None ->
      t.assigned <- t.assigned + 1;
      Printf.sprintf "r%d" t.assigned

(* Every refusal, of a frame that did not decode or of a request not
   admitted, funnels through here, then through [deliver]. *)
let reject t c reply line =
  t.rejected <- t.rejected + 1;
  Obs.count "serve.rejected";
  deliver t c reply ~ok:false line

let refuse t item code message =
  reject t item.iconn item.reply (reply_line item (Error (Api.error code message)))

let record_request t ~label ~op ~queue_wait_us ~solve_us ~encode_us =
  Obs.Histogram.add t.req_queue_wait queue_wait_us;
  Obs.Histogram.add t.req_solve solve_us;
  Obs.Histogram.add t.req_encode encode_us;
  Obs.record "request.queue_wait_us" queue_wait_us;
  Obs.record "request.solve_us" solve_us;
  Obs.record "request.encode_us" encode_us;
  note_slow t
    {
      trace_label = label;
      op;
      queue_wait_us;
      solve_us;
      encode_us;
      total_us = queue_wait_us + solve_us + encode_us;
    }

(* Counters a worker emitted into its null sink, replayed on the engine
   domain from the stats the ticket carried back.  Only needed when the
   thunk really ran on a worker; on a jobs=1 pool it ran inline right
   here and already hit the live sink. *)
let reemit_pool_stats t = function
  | None -> ()
  | Some (s : Msts.Batch.stats) ->
      if Msts.Pool.jobs t.pool > 1 then begin
        Obs.count ~n:s.requests "pool.requests";
        Obs.count ~n:s.cache_hits "pool.cache_hits";
        Obs.count ~n:s.cache_misses "pool.cache_misses";
        Obs.count ~n:s.cache_misses "pool.solves";
        Obs.count ~n:s.queue_wait_us "pool.queue_wait_us";
        Obs.count ~n:s.busy_us "pool.busy_us";
        if s.cache_misses > 0 then begin
          Obs.record "pool.queue_wait_us" s.queue_wait_us;
          Obs.record "pool.busy_us" s.busy_us
        end
      end

(* ---------- admission ---------- *)

let enqueue_unit t c u =
  Queue.add u c.q;
  t.queued_units <- t.queued_units + 1;
  if not c.active then begin
    c.active <- true;
    Queue.add c.cid t.ring
  end

let admit t c item ~repeats =
  Obs.count "serve.accepted";
  c.admitted <- c.admitted + 1;
  (match item.request.Api.op with
  | Api.Batch problems ->
      (* Shard at admission: the coordinator pass (dedupe + cache probes,
         submission order) runs here on the I/O domain, over the
         decoder's repeat map, so it costs the batch's distinct problems;
         the slots become independent units that interleave with other
         connections. *)
      let plan = Msts.Batch.shard ~cache:t.cache ~repeats problems in
      let k = Msts.Batch.shard_count plan in
      let job =
        {
          b_item = item;
          b_problems = problems;
          plan;
          solved = Array.make k (Error "pending");
          wait_us = Array.make k 0;
          busy_us = Array.make k 0;
          b_scope = Obs.Scope.fresh ();
          b_label = trace_label t item.request;
          remaining = k;
          launched = 0;
          cancelled = false;
          b_queued_units = (if k = 0 then 1 else k);
          first_launch_us = item.enqueued_us;
          first_picked_us = max_int;
          last_done_us = 0;
        }
      in
      if k = 0 then enqueue_unit t c (Finish job)
      else
        for slot = 0 to k - 1 do
          enqueue_unit t c (Shard (job, slot))
        done
  | _ -> enqueue_unit t c (Whole item));
  t.queued_requests <- t.queued_requests + 1;
  c.queued_reqs <- c.queued_reqs + 1

let submit t c ~reply ~repeats request =
  let item = { request; reply; enqueued_us = Obs.now_us (); iconn = c } in
  if Api.is_control request.Api.op then begin
    (match request.Api.op with Api.Shutdown -> t.stopping <- true | _ -> ());
    answer t item
      (match Api.exec ~solver:(inline_solver t) request.Api.op with
      | Ok (Api.Stats_info _) -> Ok (Api.Stats_info (stats_json t))
      | Ok (Api.Metrics_text _) -> Ok (Api.Metrics_text (exposition t))
      | result -> result)
  end
  else if Msts_online.Service.handles request.Api.op then
    (* Online operations are session state transitions: cheap (O(p) per
       arrival), ordered, and answered synchronously — including while
       draining, so a SIGTERM mid-session never drops a delta.  The queue
       and its admission control are for solve work only. *)
    answer_json t item (Msts_online.Service.exec t.online request.Api.op)
  else if t.stopping then
    refuse t item Api.Shutting_down "server is draining; request not admitted"
  else if t.queued_requests >= t.cfg.queue_cap then
    refuse t item Api.Overloaded
      (Printf.sprintf "request queue full (%d queued)" t.cfg.queue_cap)
  else if c.queued_reqs >= t.cfg.max_queue_per_conn then
    refuse t item Api.Overloaded
      (Printf.sprintf "connection queue full (%d queued)"
         t.cfg.max_queue_per_conn)
  else admit t c item ~repeats

let handle_line t ?conn ~reply line =
  Obs.count "serve.requests";
  let c = match conn with Some c -> c | None -> t.default_conn in
  match Api.request_or_rejection line with
  | Ok (request, repeats) -> submit t c ~reply ~repeats request
  | Error rejection -> reject t c reply (Api.response_to_line rejection)

(* ---------- completion side ---------- *)

let finish_whole t wf outcome =
  let now = Obs.now_us () in
  let d =
    match outcome with
    | Ok d -> d
    | Error exn ->
        {
          w_line =
            reply_line wf.w_item
              (Error
                 (Api.error Api.Internal
                    ("worker raised: " ^ Printexc.to_string exn)));
          w_ok = false;
          w_stats = None;
          w_picked_us = wf.w_launched_us;
          w_done_us = now;
        }
  in
  Obs.record "pool.completion_wait_us" (max 0 (now - d.w_done_us));
  reemit_pool_stats t d.w_stats;
  wf.w_item.iconn.c_inflight <- wf.w_item.iconn.c_inflight - 1;
  maybe_forget t wf.w_item.iconn;
  Obs.Scope.with_scope wf.w_scope @@ fun () ->
  Obs.span "serve.request"
    ~args:[ ("op", wf.w_op); ("trace", wf.w_label) ]
  @@ fun () ->
  let deliver_from = Obs.now_us () in
  deliver t wf.w_item.iconn wf.w_item.reply ~ok:d.w_ok d.w_line;
  let delivered = Obs.now_us () in
  record_request t ~label:wf.w_label ~op:wf.w_op
    ~queue_wait_us:(max 0 (wf.w_launched_us - wf.w_item.enqueued_us))
    ~solve_us:(max 0 (d.w_done_us - d.w_picked_us))
    ~encode_us:(max 0 (delivered - deliver_from))

let finalize_batch t job =
  Obs.Scope.with_scope job.b_scope @@ fun () ->
  Obs.span "serve.request"
    ~args:[ ("op", "batch"); ("trace", job.b_label) ]
  @@ fun () ->
  let deliver_from = Obs.now_us () in
  let result =
    match
      Msts.Batch.assemble job.plan ~jobs:(Msts.Pool.jobs t.pool)
        ~solved:job.solved ~wait_us:job.wait_us ~busy_us:job.busy_us
    with
    | outcomes, stats ->
        Ok
          (Api.Batched
             {
               problems = job.b_problems;
               outcomes;
               firsts = Msts.Batch.firsts job.plan;
               stats;
               cache_capacity = t.cfg.cache_capacity;
             })
    | exception exn -> Error (Api.error Api.Internal (Printexc.to_string exn))
  in
  answer t job.b_item result;
  let delivered = Obs.now_us () in
  let solve_us =
    if job.first_picked_us = max_int then 0
    else max 0 (job.last_done_us - job.first_picked_us)
  in
  record_request t ~label:job.b_label ~op:"batch"
    ~queue_wait_us:(max 0 (job.first_launch_us - job.b_item.enqueued_us))
    ~solve_us
    ~encode_us:(max 0 (delivered - deliver_from))

let finish_shard t sf outcome =
  let now = Obs.now_us () in
  let d =
    match outcome with
    | Ok d -> d
    | Error exn ->
        {
          s_outcome = Error (Printexc.to_string exn);
          s_picked_us = sf.s_launched_us;
          s_done_us = now;
        }
  in
  Obs.record "pool.completion_wait_us" (max 0 (now - d.s_done_us));
  let job = sf.s_job in
  job.solved.(sf.s_slot) <- d.s_outcome;
  job.wait_us.(sf.s_slot) <- max 0 (d.s_picked_us - sf.s_launched_us);
  job.busy_us.(sf.s_slot) <- max 0 (d.s_done_us - d.s_picked_us);
  if d.s_picked_us < job.first_picked_us then job.first_picked_us <- d.s_picked_us;
  if d.s_done_us > job.last_done_us then job.last_done_us <- d.s_done_us;
  job.b_item.iconn.c_inflight <- job.b_item.iconn.c_inflight - 1;
  maybe_forget t job.b_item.iconn;
  job.remaining <- job.remaining - 1;
  if job.remaining = 0 then finalize_batch t job

(* Whole and shard tickets carry different payload types, so each flight
   is polled and finished through its own arm. *)
let collect t =
  ignore (Msts.Pool.drain_completions t.pool);
  if t.inflight <> [] then begin
    let still = ref [] in
    List.iter
      (fun flight ->
        let done_ =
          match flight with
          | F_whole wf -> (
              match Msts.Pool.poll wf.w_ticket with
              | None -> false
              | Some r ->
                  finish_whole t wf r;
                  true)
          | F_shard sf -> (
              match Msts.Pool.poll sf.s_ticket with
              | None -> false
              | Some r ->
                  finish_shard t sf r;
                  true)
        in
        if done_ then t.inflight_count <- t.inflight_count - 1
        else still := flight :: !still)
      t.inflight;
    t.inflight <- List.rev !still
  end

(* ---------- launch side (the DRR pump) ---------- *)

let timed_out t ~now ~enqueued_us =
  t.cfg.timeout_us > 0 && now - enqueued_us > t.cfg.timeout_us

let timeout_answer t item now =
  t.timeouts <- t.timeouts + 1;
  t.rejected <- t.rejected + 1;
  Obs.count "serve.timeouts";
  answer t item
    (Error
       (Api.error Api.Timeout
          (Printf.sprintf "queued %d us, deadline %d us"
             (now - item.enqueued_us) t.cfg.timeout_us)))

(* First unit of a request leaves the queue: the request's queue wait is
   decided now, globally and per connection. *)
let note_launch_wait c ~now ~enqueued_us =
  let wait = max 0 (now - enqueued_us) in
  Obs.record "serve.queue_wait_us" wait;
  Obs.Histogram.add c.queue_wait wait

let track t c flight =
  c.c_inflight <- c.c_inflight + 1;
  let ready =
    match flight with
    | F_whole wf -> (
        match Msts.Pool.poll wf.w_ticket with
        | Some r ->
            finish_whole t wf r;
            true
        | None -> false)
    | F_shard sf -> (
        match Msts.Pool.poll sf.s_ticket with
        | Some r ->
            finish_shard t sf r;
            true
        | None -> false)
  in
  (* An inline pool (jobs=1) completes the ticket during [submit]: finish
     it on the spot so a single-core engine still clears a whole
     micro-batch per dispatch instead of one unit per completion slot. *)
  if not ready then begin
    t.inflight <- t.inflight @ [ flight ];
    t.inflight_count <- t.inflight_count + 1
  end

let launch_whole t c item now =
  let label = trace_label t item.request in
  let op_name = Api.op_name item.request.Api.op in
  let scope = Obs.Scope.fresh () in
  let stats_ref = ref None in
  let solver problems =
    let outcomes, stats = inline_solver t problems in
    stats_ref := Some stats;
    (outcomes, stats)
  in
  let thunk () =
    let picked = Obs.now_us () in
    let result =
      Api.exec ~cache_capacity:t.cfg.cache_capacity ~solver item.request.Api.op
    in
    (* written before the clock is read: the writing is solve time *)
    let line = reply_line item result in
    {
      w_line = line;
      w_ok = Result.is_ok result;
      w_stats = !stats_ref;
      w_picked_us = picked;
      w_done_us = Obs.now_us ();
    }
  in
  let ticket =
    Obs.Scope.with_scope scope (fun () -> Msts.Pool.submit t.pool thunk)
  in
  track t c
    (F_whole
       {
         w_item = item;
         w_scope = scope;
         w_label = label;
         w_op = op_name;
         w_launched_us = now;
         w_ticket = ticket;
       })

let launch_shard t c job slot now =
  if job.launched = 0 then job.first_launch_us <- now;
  job.launched <- job.launched + 1;
  let request = Msts.Batch.shard_request job.plan slot in
  let thunk () =
    let picked = Obs.now_us () in
    let outcome = Api.guarded_solve request in
    { s_outcome = outcome; s_picked_us = picked; s_done_us = Obs.now_us () }
  in
  let ticket =
    Obs.Scope.with_scope job.b_scope (fun () -> Msts.Pool.submit t.pool thunk)
  in
  track t c
    (F_shard { s_job = job; s_slot = slot; s_launched_us = now; s_ticket = ticket })

(* Process one popped unit.  Returns [true] when the unit did real work
   (and must be charged against the conn's deficit and the round's
   budget); cancelled shards ride free. *)
let process_unit t c now u =
  match u with
  | Whole item ->
      request_dequeued t c;
      note_launch_wait c ~now ~enqueued_us:item.enqueued_us;
      if timed_out t ~now ~enqueued_us:item.enqueued_us then
        timeout_answer t item now
      else launch_whole t c item now;
      true
  | Shard (job, slot) ->
      job.b_queued_units <- job.b_queued_units - 1;
      if job.b_queued_units = 0 then request_dequeued t c;
      if job.cancelled then false
      else if
        job.launched = 0
        && timed_out t ~now ~enqueued_us:job.b_item.enqueued_us
      then begin
        (* Still whole: no shard has launched yet, so the batch can be
           timed out as one request.  Once a shard is on a worker the
           batch is in flight and runs to completion. *)
        job.cancelled <- true;
        note_launch_wait c ~now ~enqueued_us:job.b_item.enqueued_us;
        timeout_answer t job.b_item now;
        true
      end
      else begin
        launch_shard t c job slot now;
        true
      end
  | Finish job ->
      job.b_queued_units <- job.b_queued_units - 1;
      request_dequeued t c;
      note_launch_wait c ~now ~enqueued_us:job.b_item.enqueued_us;
      if timed_out t ~now ~enqueued_us:job.b_item.enqueued_us then
        timeout_answer t job.b_item now
      else begin
        job.first_launch_us <- now;
        finalize_batch t job
      end;
      true

(* Deficit round robin over the active connections: each visit tops the
   connection's deficit up by [quantum] and launches one unit per credit,
   so a connection that floods the queue advances one unit per turn while
   everyone else stays at its own front of line. *)
let pump t =
  let cap = max_inflight t in
  let processed = ref 0 in
  let budget () = t.inflight_count < cap && !processed < t.cfg.max_batch in
  let now = Obs.now_us () in
  let rec visit () =
    if budget () && not (Queue.is_empty t.ring) then begin
      let cid = Queue.pop t.ring in
      match Hashtbl.find_opt t.conns cid with
      | None -> visit ()
      | Some c ->
          if Queue.is_empty c.q then begin
            c.active <- false;
            c.deficit <- 0;
            maybe_forget t c;
            visit ()
          end
          else begin
            c.deficit <- c.deficit + t.cfg.quantum;
            Obs.record "serve.fairness.deficit" c.deficit;
            while
              c.deficit > 0 && (not (Queue.is_empty c.q)) && budget ()
            do
              let u = Queue.pop c.q in
              t.queued_units <- t.queued_units - 1;
              if process_unit t c now u then begin
                c.deficit <- c.deficit - 1;
                incr processed
              end
            done;
            if Queue.is_empty c.q then begin
              c.active <- false;
              c.deficit <- 0;
              maybe_forget t c
            end
            else Queue.add cid t.ring;
            visit ()
          end
    end
  in
  visit ();
  if !processed > 0 then begin
    Obs.record "serve.batch_size" !processed;
    Obs.record "serve.inflight" t.inflight_count
  end

let dispatch t =
  let before = t.served in
  collect t;
  pump t;
  collect t;
  t.served - before

let drain t =
  let total = ref 0 in
  while t.queued_units > 0 || t.inflight_count > 0 do
    let delivered = dispatch t in
    total := !total + delivered;
    if delivered = 0 && t.inflight_count > 0 then
      (* Solves are still on worker domains: sleep on the completion
         pipe instead of spinning. *)
      ignore
        (try Unix.select [ wakeup_fd t ] [] [] 0.05
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
  done;
  !total

let shutdown t = Msts.Pool.shutdown t.pool
