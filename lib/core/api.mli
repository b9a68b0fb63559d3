(** The versioned, typed request API — the single entry surface shared by
    the CLI subcommands, the [msts serve] daemon and programmatic callers.

    One wire format, one dispatcher: a {!request} is a typed operation
    (solve, metrics, report, check, batch, profile, plus the control
    operations ping/stats/shutdown) tagged with the protocol {!version}
    and an optional correlation id.  {!exec} runs an operation and returns
    a typed {!reply}.  One payload writer turns a reply into bytes: the
    daemon frames them with {!response_line}, and the CLI's
    [--format=json] prints them indented with {!output_pretty_reply} — so
    an answer computed through a live [msts serve] socket is
    byte-identical to the same request answered by the CLI, because both
    are the same code path.

    Codecs are {e total}: {!request_of_line} and {!response_of_line} map
    any byte string to either a value or a structured {!error} — a
    malformed or truncated frame becomes [`bad_request`], an unknown
    protocol version [`unsupported_version`]; nothing raises.  Printing a
    line then reading it back is the identity (QCheck-tested in
    [test/test_api.ml]).

    Error classification follows the repo-wide prefix convention: an
    [Invalid_argument] whose message starts with ["Msts."] (the
    [Msts.Netsim.*]-style precondition errors) maps to the
    [`invalid_argument`] code with the message preserved verbatim; solver
    refusals map to [`unsolvable`].  See docs/API.md for the wire
    protocol, the versioning policy and the full error-code table. *)

val version : int
(** Current wire-protocol version (1).  Requests may omit ["v"] (it
    defaults to the current version); a present-but-different version is
    rejected with [`unsupported_version`]. *)

type problem = Solve.problem
(** The solve triple: platform, optional task count, optional deadline. *)

(** {2 Structured errors} *)

type error_code =
  | Bad_request  (** malformed/truncated frame, missing or ill-typed field *)
  | Unsupported_version  (** ["v"] present and not {!version} *)
  | Invalid_platform  (** the platform field did not parse *)
  | Invalid_argument_error
      (** an [Msts.*]-prefixed precondition violation (the PR-6 error
          convention), message preserved verbatim *)
  | Unsolvable  (** well-formed request the solver refuses (e.g. no objective) *)
  | Overloaded  (** admission control: the daemon's request queue is full *)
  | Timeout  (** the request exceeded its queue-wait deadline *)
  | Shutting_down  (** received while the daemon drains *)
  | Internal  (** uncaught exception; the daemon stays up *)

val error_code_to_string : error_code -> string
(** Stable wire name ([bad_request], [unsupported_version], ...). *)

type error = { code : error_code; message : string }

val error : error_code -> string -> error
val error_of_exn : exn -> error
(** Classify an exception per the prefix convention above. *)

val error_of_solve_failure : string -> error
(** Classify a [Solve.solve] / [Solve.as_spider] [Error] message:
    [`invalid_argument`] when ["Msts."]-prefixed, [`unsolvable`]
    otherwise. *)

(** {2 Operations} *)

type workload = Solve_only | Execute | Pull | Faults

val max_replay_events : int
(** The engine budget of a fault replay (1000000), and so the most fault
    events [check], [profile] and [msts faults] accept: a longer fault
    trace could never finish replaying within it. *)

type op =
  | Ping
  | Schedule of problem  (** makespan-optimal schedule ([tasks] objective) *)
  | Deadline of problem  (** maximise tasks within [deadline] *)
  | Metrics of problem
  | Batch of problem array
  | Report of { problem : problem; planned : bool }
  | Check of { problem : problem; trace : bool; seed : int; events : int }
      (** [trace] travels as the wire field ["traced"] — the request
          envelope's trace context owns the ["trace"] key *)
  | Profile of {
      platform : Msts_platform.Parse.platform;
      tasks : int;
      deadline : int option;
      workload : workload;
      seed : int;
      events : int;
    }
  | Stats  (** daemon statistics (answered engine-side by [msts serve]) *)
  | Metrics_dump
      (** live telemetry exposition (Prometheus text format).  Shares the
          wire name [metrics] with {!Metrics}: a frame with a [platform]
          field is the solve form, one without is this control op.
          Answered engine-side by [msts serve]; the stateless {!exec}
          returns an empty exposition. *)
  | Shutdown  (** ask the daemon to drain and exit *)
  | Online_open of {
      platform : Msts_platform.Parse.platform;
      deadline : int;
      capacity : int;
    }
      (** open an anytime-scheduling session (chain platforms only;
          [capacity] preallocates placement storage, 0 = grow on demand) *)
  | Online_submit of { session : int; tasks : int }
      (** feed [tasks] arrivals; the reply streams one delta each *)
  | Online_advance of { session : int; time : int }
      (** move the execution frontier; placements behind it freeze *)
  | Online_extend of { session : int; deadline : int }
      (** grow the session deadline, displacing the revisable suffix *)
  | Online_degrade of { session : int; at : int; work_factor : int }
      (** slow processor [at]; unfrozen tasks are re-placed *)
  | Online_plan of { session : int }  (** snapshot the current plan *)
  | Online_close of { session : int }  (** drop the session *)

val op_name : op -> string
(** The wire name ([ping], [schedule], ..., [online-close]). *)

val is_control : op -> bool
(** Control operations ([Ping]/[Stats]/[Metrics_dump]/[Shutdown]) bypass
    the daemon's request queue and are answered immediately. *)

val is_online : op -> bool
(** The [Online_*] operations.  They are stateful: {!exec} refuses them
    with [`bad_request`]; [Msts_online.Service.exec] (held by the daemon
    engine and the [msts online] CLI) is their handler, also answered
    synchronously — including during a drain, so an in-flight online
    session loses no deltas on SIGTERM (docs/ONLINE.md). *)

type request = { id : int option; trace : string option; op : op }
(** [id], when present, is echoed verbatim in the response — pipelined
    clients correlate replies with it.  [trace] is an opaque
    client-chosen correlation context, also echoed verbatim on the
    response; the daemon additionally uses it to label the request's
    telemetry scope and slow-request-log entry.  Requests without a
    [trace] get an engine-assigned label in the logs but {e no} injected
    field on the wire — responses stay byte-identical for trace-less
    clients. *)

(** {2 Wire codecs (JSONL framing: one JSON document per line)} *)

val request_to_line : request -> string
(** Compact JSON, newline-terminated. *)

val request_of_line : string -> (request, error) result
(** Decodes a frame straight from its bytes through
    {!Msts_obs.Json.Reader}, building no JSON tree.  Members may come in
    any order; unknown ones are skipped (their syntax still checked); the
    first occurrence of a repeated member counts; member names may be
    escaped.  A syntax error anywhere in the frame is reported before any
    field error, and field errors come in a fixed check order: ["v"],
    ["id"], ["trace"], ["op"], then the operation's fields (for a batch,
    element by element, each as [platform], [tasks], [deadline]).

    Within a [batch] frame each distinct platform text is parsed once:
    problems repeating a text (however it is escaped) share one physical
    {!Msts_platform.Parse.platform}, and elements equal in (platform
    text, [tasks], [deadline]) decode to one physical problem, the
    problems of one text being filed by a hash of their objective in
    buckets of at most 8 (an element a full bucket turns away gets a
    problem value of its own, so hash collisions cost at most 8
    compares per element, never a scan of the frame).  An
    element whose bytes equal those of an earlier element that decoded
    cleanly is not lexed at all: the decoder finds the earlier one in a
    per-frame memo of offsets into the frame (a hash of the element's
    first 32 bytes picks a bucket of at most 8 candidates, so a lookup
    costs O(element bytes) whatever the frame) and steps over it.  Such
    a repeat allocates nothing but its entry in the frame's repeat map
    (an int array that doubles as it fills), and the frame's problem
    array is allocated once, at its final size, from that map and the
    distinct problems.  Nothing is cached across frames.  The memo
    emits [api.batch_elements], [api.batch_memo_hits] and
    [api.batch_memo_candidates] (the recorded elements and problems
    compared, at most 16 per element) once per frame. *)

val frame_id : string -> int option
(** Best-effort extraction of the correlation id from a frame that may
    not decode as a full request. *)

type response = {
  id : int option;
  trace : string option;
  result : (Msts_obs.Json.t, error) result;
}

val response_to_line : response -> string
(** The newline-terminated frame of a response whose payload is a tree:
    the envelope ([v], then [id] and [trace] when present, then [ok] or
    [error]) is written by the same writer as {!response_line}'s, and the
    payload is spliced in with {!Msts_obs.Json.Writer.value}. *)

val response_of_line : string -> (response, error) result

val request_or_rejection : string -> (request * int array, response) result
(** {!request_of_line} for a server, with a [batch] frame's repeat map:
    for each problem [i], the first problem [j <= i] that is the same
    physical value, which the decoder knows without hashing any problem
    (empty for the other ops).  {!Msts_pool.Batch.shard} takes it as
    [~repeats], so a repeated element costs the shard two int copies.

    A frame that does not decode comes back as the error response
    answering it, with the [id] and [trace] recovered best-effort from
    the same reading so the client can still correlate it: the first
    ["id"] when it is an integer, the first ["trace"] when it is a
    string, neither when the frame is malformed or not an object. *)

(** {2 Execution} *)

type section = {
  label : string;
  trace : Msts_trace.Trace.t;
  violations : Msts_trace.Trace.violation list;
}
(** One audited trace of a [Check] reply. *)

type reply =
  | Pong
  | Solved of { plan : Msts_schedule.Plan.t; deadline : int option }
      (** [deadline] is [Some] for the [Deadline] operation (the JSON
          rendering carries it as an extra field, as [msts deadline
          --format=json] always has) *)
  | Measured of Msts_schedule.Plan.t
  | Batched of {
      problems : problem array;
      outcomes : Msts_pool.Batch.outcome array;
      firsts : int array;
          (** per problem, the earlier one whose result it repeats, or
              itself ({!Msts_pool.Batch.firsts}); a problem past its end
              is its own first, so {!exec}, whose solver does not say
              which problems repeat, leaves it empty.  Only
              {!response_line} reads it, and only to share bytes: the
              frame is the same whatever it holds. *)
      stats : Msts_pool.Batch.stats;
      cache_capacity : int;
    }
  | Reported of { source : string; report : Msts_sim.Report.t }
  | Checked of {
      plan : Msts_schedule.Plan.t;
      oracle : string list;
      sections : section list;
      ok : bool;
    }
  | Profiled of {
      summary : (string * Msts_obs.Json.t) list;
      mem : Msts_obs.Obs.Memory.t;
          (** the sink that observed the workload — text renderers read its
              tables, {!json_of_reply} flattens its profile fields *)
    }
  | Stats_info of Msts_obs.Json.t
  | Metrics_text of string
      (** a Prometheus text-format exposition; rendered as
          [{"format": "prometheus-text-0.0.4", "body": ...}] *)
  | Bye

val json_of_reply : reply -> Msts_obs.Json.t
(** The reply's payload — what the daemon puts in the [ok] field — as a
    tree, for callers that read or extend it.  Every reply kind has one
    encoder: [Solved] and [Batched] payloads are written straight to
    bytes, and their tree is {!Msts_obs.Json.parse} of those bytes; every
    other kind is encoded as this tree and spliced into the bytes. *)

val output_pretty_reply : out_channel -> reply -> unit
(** What the CLI's [--format=json] prints (before its final newline):
    {!Msts_obs.Json.output_pretty} of the payload bytes {!response_line}
    frames, indented straight onto the channel.  No tree is built for
    [Solved] and [Batched] replies, and neither the compact payload nor
    the indented text is copied into a string. *)

val response_line :
  id:int option -> trace:string option -> (reply, error) result -> string
(** The newline-terminated wire frame answering a request: the envelope
    of {!response_to_line} around the payload writer's bytes, so byte for
    byte [response_to_line { id; trace; result = Result.map json_of_reply
    result }].  [Solved] and [Batched] payloads are written through
    {!Msts_obs.Json.Writer} with no tree in between.  In a [Batched]
    payload each distinct result is rendered once: an element that
    repeats an earlier one (its [firsts] entry, confirmed by the same
    physical outcome and platform kind) copies that element's bytes after
    the instance number with {!Msts_obs.Json.Writer.repeat}.  The daemon
    calls it on the worker domain that ran a single solve, and on its
    main domain for a batch, once the batch is assembled. *)

type solver = problem array -> Msts_pool.Batch.outcome array * Msts_pool.Batch.stats
(** How {!exec} solves: the CLI plugs {!direct_solver} (plain sequential
    [Solve.solve], no pool, no cache — identical behaviour to the
    pre-API CLI), the daemon plugs a [Msts_pool.Batch.run] closure over
    its persistent pool and shared LRU cache. *)

val direct_solver : solver

val guarded_solve : problem -> Msts_pool.Batch.outcome
(** [Solve.solve] that turns exceptions into [Error] messages (preserving
    [Invalid_argument] text) — what long-lived daemons feed to
    [Batch.run] so one poisoned request cannot kill a worker. *)

val exec : ?cache_capacity:int -> solver:solver -> op -> (reply, error) result
(** Run one operation.  Never raises: exceptions become
    {!error_of_exn}-classified errors.  [cache_capacity] is reported in
    [Batched] replies (the CLI passes its [--cache-size], the daemon its
    configured capacity; defaults to 0). *)

val respond : ?cache_capacity:int -> solver:solver -> request -> response
(** {!exec} + {!json_of_reply}, with the request's [id] and [trace]
    echoed: the in-process answer to a request, as a tree.  The daemon
    answers through {!response_line} instead, with the same bytes. *)
