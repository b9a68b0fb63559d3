(** Zero-dependency observability: hierarchical spans, named counters,
    value recordings (histograms) and pluggable sinks.

    The library's hot paths (chain placement, fork allocation, the event
    engine, the network executors, the replanner) call {!span}, {!count},
    {!record} and {!samples} unconditionally.  With no sink installed —
    the default, the "null sink" — each is a single mutable-field read
    and a branch: no clock is read, nothing allocates, and no behaviour
    changes (the instrumentation only observes; the test suite asserts
    outputs are identical with and without a sink).

    With a sink installed every event carries a timestamp from a
    non-decreasing (monotonised wall) microsecond clock, overridable for
    deterministic tests via {!set_clock}.

    Sink and clock are {e domain-local}: a freshly spawned domain starts
    with the null sink, so the pool's worker domains ({!Msts_pool.Pool})
    stay silent and race-free no matter what the spawning domain has
    installed.  Multi-domain components gather their own per-domain
    statistics and emit totals from the coordinating domain (see the
    [pool.*] counters).

    Four stock sinks cover the common deployments: {!Memory} (aggregating,
    bounded raw log) for profiling and tests, {!Streaming} (bounded-buffer
    JSONL) for week-long runs that must not grow the heap, {!Ring} (last-N
    events) for post-mortem dumps after a fault, and the null sink for
    production-default zero cost.

    Naming convention: [<subsystem>.<metric>], lowercase, dot-separated —
    e.g. [chain.candidate_scans], [engine.events], [netsim.transfer_us].
    See docs/OBSERVABILITY.md for the full catalogue. *)

type event =
  | Span_begin of {
      name : string;
      ts : int;
      args : (string * string) list;
      scope : int;
    }
  | Span_end of { name : string; ts : int; scope : int }
  | Count of { name : string; delta : int; ts : int; scope : int }
  | Value of { name : string; value : int; ts : int; scope : int }
  | Samples of {
      name : string;
      values : int array;
      counts : int array;
      ts : int;
      scope : int;
    }
      (** timestamps in microseconds; [Value] carries one histogram
          sample (a duration, a queue wait, a gap — any non-negative
          magnitude).  [Samples] carries many samples of one histogram
          at once as an exact multiset: [values] non-negative and
          strictly ascending, [counts.(i) >= 1] copies of [values.(i)].
          The simulator hands each run's simulated-time samples over this
          way, one event per histogram per run.  [scope] attributes the
          event to a request scope ({!Scope}); {!Scope.none} (0) means
          unscoped. *)

type sink = event -> unit

(** {2 Sink management} *)

val set_sink : sink option -> unit
(** Install ([Some]) or remove ([None], the null sink) the calling
    domain's sink. *)

val current_sink : unit -> sink option

val enabled : unit -> bool
(** [true] iff a sink is installed. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install a sink, run, restore the previous sink (also on exceptions). *)

val tee : sink list -> sink
(** Fan one event stream out to several sinks (e.g. a {!Streaming} file
    plus a {!Ring} for post-mortems), in list order.  A sink that raises
    is skipped for that event: the remaining sinks still receive it and
    the instrumented computation never observes the exception. *)

(** {2 Request scopes}

    A scope is a lightweight integer id stamped on every event a
    computation emits, so one sink can attribute interleaved work (e.g.
    100 concurrent daemon requests) to its originator.  Scopes are
    domain-local like the sink; {!Msts_pool.Pool.map} explicitly forwards
    the submitting domain's scope into its worker closures.  With the null
    sink installed, {!Scope.with_scope} is the same single load-and-branch
    as {!span} — the disabled path allocates nothing (scopes only exist on
    events, and no events are being emitted). *)
module Scope : sig
  val none : int
  (** 0 — the ambient "unscoped" scope.  Unscoped events serialise without
      the ["sc"] member, byte-identical to pre-scope streams. *)

  val fresh : unit -> int
  (** A process-unique scope id (never {!none}); safe from any domain. *)

  val current : unit -> int
  (** The calling domain's active scope ({!none} by default). *)

  val set : int -> unit
  (** Unconditionally set the calling domain's scope — the low-level hook
      worker pools use to propagate a submitter's scope. Prefer
      {!with_scope}. *)

  val with_scope : int -> (unit -> 'a) -> 'a
  (** Run [f] with the given scope active, restoring the previous scope
      afterwards (also on exceptions).  Free when no sink is installed
      (the scope is observable only through emitted events). *)
end

(** {2 Clock} *)

val set_clock : (unit -> int) option -> unit
(** Override the microsecond clock ([None] restores the wall clock).
    Whatever the source, emitted timestamps never decrease.  A library
    entry point documented in docs/OBSERVABILITY.md ("Programmatic
    use"). *)

val now_us : unit -> int
(** Current (monotonised) timestamp in microseconds. *)

(** {2 Instrumentation points} *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a [name] span.  The end event is emitted
    even when [f] raises.  Free when no sink is installed. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to a named counter.  Free when no sink is
    installed. *)

val record : string -> int -> unit
(** [record name v] emits one histogram sample for [name] (negative values
    are clamped to 0 by the aggregating sinks).  Free when no sink is
    installed. *)

val samples : string -> values:int array -> counts:int array -> unit
(** [samples name ~values ~counts] emits one {!Samples} event: [counts.(i)]
    samples of [values.(i)] for [name], in the shape the constructor
    documents (the arrays are not copied or checked).  An aggregating sink
    ends in the same histogram state as after the equivalent {!record}s.
    Free when no sink is installed. *)

(** {2 Histograms} *)

(** Log-bucketed (HDR-style) histogram of non-negative integers: constant
    memory (one small int array) however many samples it absorbs.  Values
    below 16 are exact; larger values land in one of 16 sub-buckets per
    power of two, so quantiles carry < 1/16 relative error.  Quantiles
    report the bucket's deterministic lower bound, clamped to the observed
    [min]/[max]. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** Absorb one sample ([max 0 v]). *)

  val add_many : t -> int -> n:int -> unit
  (** Absorb [n] copies of one sample: the same state as [n] calls of
      {!add} (nothing when [n <= 0]).  Documented in
      docs/OBSERVABILITY.md. *)

  val count : t -> int
  val sum : t -> int

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [\[0,1\]] (clamped); 0 when empty. *)

  val merge_into : into:t -> t -> unit
  (** Add every bucket of the second histogram into [into] — how
      per-domain histograms combine on a coordinator.  Documented in
      docs/OBSERVABILITY.md. *)

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(inclusive upper bound, count)] pairs in
      ascending bound order — the raw material for cumulative exports
      ({!Msts_obs.Prometheus} [le] boundaries). *)

  val to_json : t -> Json.t
  (** [{"count", "sum", "min", "max", "p50", "p90", "p99"}]. *)
end

(** {2 Sinks} *)

(** Aggregating in-memory sink: counter totals, per-span statistics,
    histograms and a {e bounded} raw event log (for exporters and tests).
    Aggregates are exact regardless of the log cap: they are updated
    incrementally as events arrive, never recomputed from the log. *)
module Memory : sig
  type t

  val create : ?max_events:int -> ?max_scopes:int -> unit -> t
  (** [max_events] (default 100_000) caps the stored raw events (oldest
      dropped first); counter totals, span statistics and histograms stay
      exact past the cap.  Events keep their scope ids, but the sink
      aggregates them globally only: its cost does not depend on how many
      scopes it sees.  [max_scopes] is ignored; it remains only because
      perfbench passes it, and goes at the next change to perfbench. *)

  val sink : t -> sink

  val counters : t -> (string * int) list
  (** Counter totals, sorted by name. *)

  val counter : t -> string -> int
  (** A single total (0 when never incremented). *)

  type span_stat = {
    calls : int;
    total_us : int;  (** summed wall time, nested spans included *)
    max_us : int;
  }

  val spans : t -> (string * span_stat) list
  (** Completed-span statistics, sorted by name. *)

  val histograms : t -> (string * Histogram.t) list
  (** Histograms of {!record}ed values, sorted by name. *)

  val events : t -> event list
  (** The bounded raw log, in emission order (newest
      [min stored (max_events)] events). *)

  val dropped_events : t -> int
  (** Events evicted from the raw log by the cap (aggregates unaffected).
      Documented in docs/OBSERVABILITY.md. *)

  val counter_rows : t -> string list list
  (** Counter totals as [[name; total]] rows for the shared table
      renderers (columns: counter, total). *)

  val span_rows : t -> string list list
  (** Span statistics as [[name; calls; total_us; max_us; p50_us; p99_us]]
      rows. *)

  val histogram_rows : t -> string list list
  (** Recorded-value histograms as [[name; count; p50; p90; p99; max]]
      rows. *)

  val to_json : t -> Json.t
  (** [{"counters": {...},
        "spans": {name: {calls, total_us, max_us, p50_us, p99_us}},
        "histograms": {name: {count, sum, min, max, p50, p90, p99}}}]. *)

  val chrome_trace : ?process_name:string -> t -> Json.t
  (** The event log as a Chrome [trace_event] document (the JSON-object
      format with a ["traceEvents"] array of [B]/[E] duration events and
      [C] counter samples), loadable in [about:tracing] and Perfetto.
      Counter samples carry running totals; value recordings become their
      own sample tracks, and a {!Samples} event one point on its track
      with the [count] and [sum] of its samples.  When the raw log
      overflowed its cap the metadata carries ["dropped_events"]. *)
end

(** Constant-memory streaming sink: events are serialised to one compact
    JSON object per line ([{"ev": "B"|"E"|"C"|"V"|"S", "name", "ts", ...}];
    a {!Samples} event carries ["values"] and ["counts"] lists, a scoped
    event its scope as ["sc"]) into a bounded buffer that is flushed to
    the output channel every [flush_every] events — a week-long [Netsim]
    run traces in O(flush_every) memory.  The caller owns the channel;
    call {!flush} before closing it. *)
module Streaming : sig
  type t

  val create : ?flush_every:int -> out_channel -> t
  (** Default [flush_every] 4096 events.
      @raise Invalid_argument if [flush_every < 1]. *)

  val sink : t -> sink

  val flush : t -> unit
  (** Drain the buffer to the channel and flush the channel. *)

  val max_buffered : t -> int
  (** High-water mark of the internal buffer — the memory bound; never
      exceeds [flush_every]. *)
end

(** Last-N ring-buffer sink for post-mortem dumps: constant memory, keeps
    the newest [capacity] events.  Pair it (via {!tee}) with a real sink,
    or run it alone in production and dump on failure. *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 1024.
      @raise Invalid_argument if [capacity < 1]. *)

  val sink : t -> sink

  val events : t -> event list
  (** Retained events, oldest first. *)

  val to_jsonl : t -> string
  (** Retained events as JSON lines (the {!Streaming} format). *)
end
