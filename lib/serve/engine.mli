(** The daemon's request engine, with no sockets in sight.

    The engine owns the serving policy: per-connection FIFO queues under
    a deficit-round-robin scheduler, admission control (a global cap and
    a per-connection cap), per-request queue-wait deadlines, a persistent
    {!Msts.Pool} with the shared {!Msts.Batch} LRU solve cache, and the
    [serve.*] telemetry.  The socket layer ({!Server}) only moves bytes;
    everything observable about serving — which requests are admitted,
    rejected, timed out, answered, and in what order — is decided here, so
    the whole policy is testable in-process (see [test/test_serve.ml],
    [test/test_obs.ml]'s drift guard and [test/test_api.ml]).

    Flow: {!handle_line} either answers immediately (control operations,
    parse errors, admission rejections) or enqueues work units on the
    submitting connection's queue — one [Whole] unit
    per singleton request, one shard unit per distinct uncached problem
    of a [batch] request ({!Msts.Batch.shard}).  {!dispatch} is
    {e non-blocking}: it collects finished worker tickets
    ({!Msts.Pool.poll}), pumps the fairness scheduler to launch new units
    ({!Msts.Pool.submit}), and collects again — solves run on worker
    domains while the caller keeps reading and writing frames.  Each
    worker also writes its solve's response frame, so what comes back
    through the ticket is wire bytes.  Responses are delivered through
    the per-request [reply] callback, always on the calling domain, as
    completions arrive.

    Fairness: each visit of the round-robin ring tops a connection's
    deficit up by [quantum] and launches one unit per credit, so a
    flooding (pipelining) client advances one unit per turn while every
    other connection stays at its own front of line; [max_queue_per_conn]
    bounds any one connection's backlog independently of [queue_cap].

    Telemetry (all emitted on the engine's domain, catalogued in
    docs/OBSERVABILITY.md): counters [serve.requests], [serve.accepted],
    [serve.rejected], [serve.timeouts], [serve.responses], [serve.errors],
    [serve.purged];
    histograms [serve.queue_wait_us] (admission-to-launch latency, one
    sample per request), [serve.batch_size] (units launched per pump),
    [serve.inflight] (in-flight units after each pump),
    [serve.fairness.deficit] (a connection's deficit at each scheduler
    visit) and [pool.completion_wait_us] (completion-to-collection
    latency per ticket).  The [pool.*] solve counters are re-emitted
    engine-side from the stats each worker hands back (worker domains
    have no sink).

    Per-request attribution: every launched unit runs under a fresh
    {!Msts.Obs.Scope} that {!Msts.Pool.submit} carries onto the worker
    domain, so [request.solve_us] and solver-side events stay attributed
    to their request; delivery happens inside a [serve.request] span
    (args: op name and trace label).  The latency breakdown is recorded
    as the [request.queue_wait_us] / [request.solve_us] /
    [request.encode_us] histograms ([solve_us] covers the worker's solve
    and the writing of its reply; [encode_us] the delivery on this
    domain, which for a batch includes assembling and writing its
    reply) — both through {!Msts.Obs.record}
    (scoped, sink-visible) and into engine-side histograms that feed
    the [stats] reply and {!exposition} even with no sink installed.  The
    slowest requests are kept in a bounded top-K log
    ({!slow_requests}). *)

type config = {
  jobs : int;  (** pool worker domains (clamped by {!Msts.Pool.create}) *)
  cache_capacity : int;  (** shared LRU solve-cache capacity, >= 1 *)
  queue_cap : int;
      (** admission control: solve requests queued beyond this are
          rejected with [`overloaded] *)
  timeout_us : int;
      (** per-request queue-wait deadline in microseconds; a request
          still queued past it is answered [`timeout] instead of solved
          (a pure OCaml solve cannot be preempted, so the deadline is
          checked at launch; a batch whose first shard already launched
          runs to completion).  0 disables timeouts. *)
  max_batch : int;  (** most units launched per {!dispatch} round *)
  slow_log : int;
      (** how many slowest requests {!slow_requests} retains (top-K by
          total latency); 0 disables the log *)
  max_queue_per_conn : int;
      (** per-connection admission control: one connection's queued
          requests beyond this are rejected with [`overloaded] even when
          the global queue has room, >= 1 *)
  quantum : int;
      (** deficit-round-robin credit added per scheduler visit (units a
          connection may launch per turn), >= 1 *)
  max_inflight : int;
      (** most units concurrently on worker domains; 0 means
          [2 * jobs] *)
}

val default_config : config
(** [jobs = 1], [cache_capacity = 256], [queue_cap = 1024],
    [timeout_us = 0], [max_batch = 32], [slow_log = 16],
    [max_queue_per_conn = 256], [quantum = 1], [max_inflight = 0]. *)

type t

val create : config -> t
(** Starts the worker pool (and its completion pipe, see {!wakeup_fd}).
    @raise Invalid_argument on a non-positive [cache_capacity],
    [queue_cap], [max_batch], [max_queue_per_conn] or [quantum], a
    negative [slow_log] or [max_inflight], or [jobs < 1]. *)

(** {2 Connections}

    The fairness scheduler needs to know which requests belong to the
    same client.  The server opens one {!conn} per accepted socket;
    callers that never open one (tests, in-process embedding) share an
    implicit default connection. *)

type conn

val open_conn : t -> conn
(** Register a new connection (its own queue, deficit and counters). *)

val close_conn : t -> conn -> unit
(** The peer is gone.  Its queued units are dropped unlaunched and
    unanswered (counted in [serve.purged]), so {!pending} no longer
    includes its requests; units already in flight finish, and the
    record is forgotten once they are collected.  A batch with shards
    already in flight is never assembled. *)

val handle_line : t -> ?conn:conn -> reply:(string -> unit) -> string -> unit
(** The full wire step: parse one JSONL frame and admit it on [conn]
    (default: the shared implicit connection).  [reply] receives each
    newline-terminated response frame ({!Msts.Api.response_line}); a
    solve's frame is written on the worker domain that ran it, so the
    calling domain only hands bytes on.  Malformed frames are answered
    with a [`bad_request] error response (never dropped, never a closed
    connection).  Control operations ([Ping]/[Stats]/[Shutdown]) are
    answered synchronously — [Shutdown] flips {!stopping} and answers
    [Bye].  Online operations ([Online_*]) are answered synchronously by
    the engine's {!Msts_online.Service} — also while draining, so an
    in-flight online session loses no deltas to a SIGTERM.  Solve
    operations are enqueued (reply comes from a later {!dispatch}), or
    answered immediately with [`shutting_down] when {!stopping}, or
    [`overloaded] when the global queue or the connection's queue is
    full.  A [batch] request is sharded at admission
    ({!Msts.Batch.shard}, over the repeat map the decoder gives, so a
    repeated element costs an int copy): its distinct uncached problems become
    independent units, and the reply is assembled
    ({!Msts.Batch.assemble}) when the last one completes — byte-identical
    to the unsharded reply. *)

val dispatch : t -> int
(** One non-blocking engine turn: collect finished worker tickets and
    deliver their replies, pump the fairness scheduler (launch up to
    [max_batch] units, bounded by [max_inflight]; expired requests are
    answered [`timeout] instead of launched), collect again.  Returns the
    number of responses delivered; 0 when nothing completed (solves may
    still be in flight — see {!inflight} and {!wakeup_fd}). *)

val drain : t -> int
(** {!dispatch} until no unit is queued or in flight, sleeping on the
    completion pipe between rounds (used at shutdown — queued and
    in-flight work is never dropped, every admitted frame is answered).
    Returns the number of responses delivered. *)

val pending : t -> int
(** Admitted requests with units still queued (not yet fully launched). *)

val inflight : t -> int
(** Units currently executing (or completed but uncollected) on the
    pool. *)

val runnable : t -> bool
(** Whether {!dispatch} could launch work right now: units are queued
    and the in-flight cap has room.  The server polls with a zero select
    timeout only when this holds; otherwise it sleeps on {!wakeup_fd}. *)

val wakeup_fd : t -> Unix.file_descr
(** The pool's completion self-pipe ({!Msts.Pool.completion_fd}):
    becomes readable when a worker finishes a unit, so a select loop
    wakes immediately to {!dispatch}.  Owned by the engine's pool; never
    read or close it directly. *)

val stop : t -> unit
(** Enter the draining state: subsequent solve submissions are rejected
    with [`shutting_down]; already-queued work is unaffected. *)

val stopping : t -> bool

val served : t -> int
(** Total responses delivered over the engine's lifetime. *)

val metrics_sink : t -> Msts.Obs.sink
(** The engine's aggregating metrics sink (a {!Msts.Obs.Memory} with no
    raw log and no per-scope tables: per-request data lives in the
    scope-stamped event stream, the slow log and the [request.*]
    histograms).  The server tees every event into it so {!exposition}
    carries the full counter/histogram families; it is always safe to
    feed. *)

val exposition : t -> string
(** The live Prometheus text exposition ({!Msts.Obs.Prometheus}): all
    counters and histograms accumulated by {!metrics_sink}, the exact
    engine-side [request.*] breakdown, and gauges for queue depth,
    in-flight units, open online sessions, cache occupancy/capacity and
    the draining flag.  This is the [Metrics_dump] reply body and what
    [--metrics-out] writes. *)

val shutdown : t -> unit
(** Shut the worker pool down (closing {!wakeup_fd}).  Idempotent; call
    after the final {!drain}. *)
