(* The traced run's in-process half: the same script replayed through the
   library's public entry points, one layer at a time, with a span around
   each call.  The decomposition follows the daemon's path for a frame:

     request
       api.decode         Api.request_of_line
       api.exec           Api.exec (simulation and audits run here)
         batch.run        the solver callback
           batch.shard    Batch.shard: fingerprints, cache probe, dedupe
           pool.task      Pool.submit .. Pool.await, per uncached problem
             pool.queue_wait
             solve        Api.guarded_solve on the worker
             pool.completion_wait
           batch.assemble Batch.assemble
       api.encode         Api.json_of_reply + Api.response_to_line

   Slots are awaited one at a time so sibling spans never overlap and the
   self times partition each request exactly. *)

module Api = Msts.Api
module Batch = Msts.Batch
module Pool = Msts.Pool
module Obs = Msts.Obs
module Json = Msts.Json

let now = Wire.now_us

(* ---------- span recorder ---------- *)

type recorder = {
  on : bool;
  mutable spans : Reduce.span array;
  mutable count : int;
  mutable current : int;
  mutable req : int;
}

let recorder on =
  let dummy = { Reduce.name = ""; start = 0.0; stop = 0.0; parent = -1; req = 0 } in
  { on; spans = Array.make 4096 dummy; count = 0; current = -1; req = 0 }

let reserve r =
  if r.count = Array.length r.spans then begin
    let a = Array.make (2 * r.count) r.spans.(0) in
    Array.blit r.spans 0 a 0 r.count;
    r.spans <- a
  end;
  r.count <- r.count + 1;
  r.count - 1

let add r ~name ~start ~stop ~parent =
  let i = reserve r in
  r.spans.(i) <- { Reduce.name; start; stop; parent; req = r.req };
  i

let span r name f =
  if not r.on then f ()
  else begin
    let i = reserve r in
    let parent = r.current in
    r.current <- i;
    let start = now () in
    let result = f () in
    r.spans.(i) <- { Reduce.name; start; stop = now (); parent; req = r.req };
    r.current <- parent;
    result
  end

let recorded r = Array.sub r.spans 0 r.count

(* ---------- the decomposed pipeline ---------- *)

type env = {
  pool : Pool.t;
  cache : Batch.cache;
  r : recorder;
  mutable requests : int;  (** problems the solver callback saw *)
  mutable hits : int;
  mutable solves : int;
  mutable solve_us : float;
  mutable solve_words : float;
}

let env ~pool ~on =
  {
    pool;
    cache = Batch.cache ~capacity:Script.cache_capacity;
    r = recorder on;
    requests = 0;
    hits = 0;
    solves = 0;
    solve_us = 0.0;
    solve_words = 0.0;
  }

let reset_counts e =
  e.requests <- 0;
  e.hits <- 0;
  e.solves <- 0;
  e.solve_us <- 0.0;
  e.solve_words <- 0.0;
  e.r.count <- 0

let solver e problems =
  span e.r "batch.run" @@ fun () ->
  let plan = span e.r "batch.shard" (fun () -> Batch.shard ~cache:e.cache problems) in
  let k = Batch.shard_count plan in
  let solved = Array.make k (Error "pending") in
  let wait_us = Array.make k 0 and busy_us = Array.make k 0 in
  for slot = 0 to k - 1 do
    let problem = Batch.shard_request plan slot in
    let submitted = now () in
    let ticket =
      Pool.submit e.pool (fun () ->
          let picked = now () in
          let w0 = Gc.minor_words () in
          let outcome = Api.guarded_solve problem in
          (outcome, picked, now (), Gc.minor_words () -. w0))
    in
    match Pool.await e.pool ticket with
    | Error exn -> raise exn
    | Ok (outcome, picked, finished, words) ->
        let returned = now () in
        solved.(slot) <- outcome;
        wait_us.(slot) <- int_of_float (picked -. submitted);
        busy_us.(slot) <- int_of_float (finished -. picked);
        if e.r.on then begin
          let task =
            add e.r ~name:"pool.task" ~start:submitted ~stop:returned ~parent:e.r.current
          in
          ignore (add e.r ~name:"pool.queue_wait" ~start:submitted ~stop:picked ~parent:task);
          ignore (add e.r ~name:"solve" ~start:picked ~stop:finished ~parent:task);
          ignore
            (add e.r ~name:"pool.completion_wait" ~start:finished ~stop:returned ~parent:task)
        end;
        e.solves <- e.solves + 1;
        e.solve_us <- e.solve_us +. (finished -. picked);
        e.solve_words <- e.solve_words +. words
  done;
  let outcomes, stats =
    span e.r "batch.assemble" (fun () ->
        Batch.assemble plan ~jobs:(Pool.jobs e.pool) ~solved ~wait_us ~busy_us)
  in
  e.requests <- e.requests + stats.Batch.requests;
  e.hits <- e.hits + stats.Batch.cache_hits;
  (outcomes, stats)

(* One frame through the decomposed path; returns the reply line. *)
let request e line =
  span e.r "request" @@ fun () ->
  match span e.r "api.decode" (fun () -> Api.request_of_line line) with
  | Error err ->
      Api.response_to_line { Api.id = Api.frame_id line; trace = None; result = Error err }
  | Ok req ->
      let result =
        span e.r "api.exec" (fun () ->
            Api.exec ~cache_capacity:Script.cache_capacity ~solver:(solver e) req.Api.op)
      in
      span e.r "api.encode" (fun () ->
          Api.response_to_line
            { Api.id = req.Api.id; trace = req.Api.trace; result = Result.map Api.json_of_reply result })

(* ---------- passes over the script ---------- *)

type replay = {
  frames : (Script.template * string) array;  (** the timed prefix *)
  warmup : string array;
}

let replay (w : Script.t) =
  let seq = ref 0 in
  let frame t =
    incr seq;
    Script.frame t !seq
  in
  let warmup = Array.map frame w.warmup in
  let frames =
    Array.init w.prefix (fun i ->
        let t = w.cycle.(i mod Array.length w.cycle) in
        (t, frame t))
  in
  { frames; warmup }

(* Oracle check of an in-process reply. *)
let verify t reply =
  let line = Oracle.strip_newline reply in
  match Oracle.reply_id line with
  | Some (_, off) -> Oracle.verify t line off
  | None -> false

type timed = {
  per_request_us : float;  (** mean wall time of one request *)
  failures : int;
}

(* Replay the timed prefix; [f] handles one frame.  The caller has sent
   the warm-up. *)
let timed_pass r f =
  (* every pass starts from the same heap state *)
  Gc.full_major ();
  let failures = ref 0 in
  let total = ref 0.0 in
  Array.iter
    (fun (t, line) ->
      let t0 = now () in
      let reply = f line in
      total := !total +. (now () -. t0);
      if not (verify t reply) then incr failures)
    r.frames;
  { per_request_us = !total /. float_of_int (Array.length r.frames); failures = !failures }

let decomposed ~pool ~on r =
  let e = env ~pool ~on in
  Array.iter (fun line -> ignore (request e line)) r.warmup;
  reset_counts e;
  let n = ref 0 in
  let timed =
    timed_pass r (fun line ->
        e.r.req <- !n;
        incr n;
        request e line)
  in
  (e, timed)

(* The real engine path, in-process: Engine.handle_line, then
   Engine.dispatch until the reply is delivered. *)
type engine_times = { handle_line_us : float; dispatch_us : float; engine_failures : int }

let engine_pass ~jobs r =
  let engine = Msts_serve.Engine.create { Msts_serve.Engine.default_config with jobs } in
  let conn = Msts_serve.Engine.open_conn engine in
  let handle = ref 0.0 and dispatch = ref 0.0 in
  let one line =
    let got = ref None in
    let t0 = now () in
    Msts_serve.Engine.handle_line engine ~conn ~reply:(fun s -> got := Some s) line;
    let t1 = now () in
    let deadline = Unix.gettimeofday () +. 30.0 in
    while !got = None && Unix.gettimeofday () < deadline do
      if Msts_serve.Engine.dispatch engine = 0 && !got = None then
        ignore (Unix.select [ Msts_serve.Engine.wakeup_fd engine ] [] [] 0.05)
    done;
    handle := !handle +. (t1 -. t0);
    dispatch := !dispatch +. (now () -. t1);
    Option.value ~default:"" !got
  in
  Array.iter (fun line -> ignore (one line)) r.warmup;
  handle := 0.0;
  dispatch := 0.0;
  let timed = timed_pass r one in
  Msts_serve.Engine.shutdown engine;
  let n = float_of_int (Array.length r.frames) in
  { handle_line_us = !handle /. n; dispatch_us = !dispatch /. n; engine_failures = timed.failures }

(* ---------- the counter snapshot ---------- *)

type counts = {
  requests : int;
  kernel_scans : int;
  placements : int;
  pool_solves : int;
  cache_hits : int;
  cache_probes : int;
  engine_events : int;
  bytes_in : int;
  bytes_out : int;
  trace_checks : int;
  trace_check_us : int;
}

(* A profile reply carries the counters of the sink it ran under (it
   shadows ours while it runs). *)
let reply_counter reply name =
  match Json.parse reply with
  | Ok json -> (
      match Option.bind (Json.member "ok" json) (Json.member "counters") with
      | Some c -> ( match Json.member name c with Some (Json.Int n) -> n | _ -> 0)
      | None -> 0)
  | Error _ -> 0

(* A reply's length, counting a profile's payload without its wall-clock
   span timings (whose digits vary from run to run). *)
let timing_free_length (t : Script.template) reply =
  match t.check with
  | Script.Profile_counts -> (
      match Oracle.ok_member reply with
      | Some ok -> String.length (Json.to_string (Oracle.strip_timings ok))
      | None -> String.length reply)
  | _ -> String.length reply

(* Timing-independent counts for the prefix: everything on this domain
   (an inline pool) under an aggregating sink.  Equal seeds give equal
   counts on equal code. *)
let counting_pass r =
  let pool = Pool.create ~jobs:1 () in
  let e = env ~pool ~on:false in
  Array.iter (fun line -> ignore (request e line)) r.warmup;
  reset_counts e;
  let mem = Obs.Memory.create ~max_events:0 ~max_scopes:0 () in
  let extra = Hashtbl.create 4 in
  let bump name n = Hashtbl.replace extra name (n + Option.value ~default:0 (Hashtbl.find_opt extra name)) in
  let bytes_in = ref 0 and bytes_out = ref 0 in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      Array.iter
        (fun ((t : Script.template), line) ->
          let reply = request e line in
          bytes_in := !bytes_in + String.length line;
          bytes_out := !bytes_out + timing_free_length t reply;
          match t.op with
          | Api.Profile _ ->
              List.iter
                (fun name -> bump name (reply_counter reply name))
                [ "chain.candidate_scans"; "chain.tasks_placed"; "engine.events" ]
          | _ -> ())
        r.frames);
  Pool.shutdown pool;
  let count name =
    Obs.Memory.counter mem name + Option.value ~default:0 (Hashtbl.find_opt extra name)
  in
  let checks =
    match List.assoc_opt "trace.check" (Obs.Memory.spans mem) with
    | Some s -> s
    | None -> { Obs.Memory.calls = 0; total_us = 0; max_us = 0 }
  in
  {
    requests = Array.length r.frames;
    kernel_scans = count "chain.candidate_scans";
    placements = count "chain.tasks_placed";
    pool_solves = e.solves;
    cache_hits = e.hits;
    cache_probes = e.requests;
    engine_events = count "engine.events";
    bytes_in = !bytes_in;
    bytes_out = !bytes_out;
    trace_checks = checks.calls;
    trace_check_us = checks.total_us;
  }

(* Fingerprint cost per problem, over every problem the prefix carries. *)
let fingerprint_us r =
  let problems =
    Array.to_list r.frames
    |> List.concat_map (fun ((t : Script.template), _) ->
           match t.op with
           | Api.Schedule p | Api.Deadline p | Api.Metrics p -> [ p ]
           | Api.Batch ps -> Array.to_list ps
           | Api.Report { problem; _ } | Api.Check { problem; _ } -> [ problem ]
           | _ -> [])
    |> Array.of_list
  in
  if Array.length problems = 0 then 0.0
  else begin
    let t0 = now () in
    Array.iter (fun p -> ignore (Sys.opaque_identity (Batch.fingerprint p))) problems;
    (now () -. t0) /. float_of_int (Array.length problems)
  end
