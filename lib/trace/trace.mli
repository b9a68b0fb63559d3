(** Typed execution traces and their segment algebra.

    A trace is the event log of one execution: every transfer and every
    computation contributes a [Start]/[Finish] pair on a named resource
    (the master's port, one link, one processor), fault handling adds
    [Abort] (an in-flight operation cut short) and [Return] (a task handed
    back to the master after a crash).  Traces come from two sources:

    - {e recorded}: install a {!Recorder} with {!with_recorder} and run any
      [Netsim] executor — eager, bounded, pull, or the fault-injection
      paths — inside the callback; the simulator emits events as they are
      granted, completed and aborted.
    - {e planned}: {!of_plan} expands a schedule's dates into the trace
      it promises — the bridge that lets the same invariant checker audit
      plans and executions alike.

    Over traces sits a small segment algebra ({!split}, {!concat},
    {!project}) in the style of trace-based separation proofs: the model's
    safety properties are phrased as {e segment-local} state machines
    ({!Check}) that thread an explicit state across segment boundaries, so
    checking a whole trace, checking its split halves in sequence, and
    checking a projection onto one resource or task all agree.  The
    invariant catalogue (one-port exclusivity, per-resource exclusivity,
    store-and-forward ordering, task serialization) restates the four
    properties of the paper's Definition 1 — on planned traces the verdict
    coincides with {!Msts_schedule.Plan.check}, and with the paper-literal
    checker kept in the test suite, which enforces both differentially; see [docs/VERIFICATION.md]. *)

(** {1 Events} *)

type op =
  | Transfer of { leg : int; hop : int }
      (** the transfer into node [hop] of [leg]; [hop = 1] goes through the
          master's port *)
  | Compute of { leg : int; depth : int }  (** execution on one processor *)

type resource =
  | Port  (** the master's single outgoing port (every hop-1 transfer) *)
  | Link of { leg : int; hop : int }  (** link into node [hop], [hop >= 2] *)
  | Cpu of { leg : int; depth : int }

type kind =
  | Start of op
  | Finish of op
  | Abort of op  (** cut short by a drop or crash; no progress made *)
  | Return  (** the task is back at the master and restarts from scratch *)

type event = { time : int; seq : int; task : int; kind : kind }
(** [seq] breaks ties between same-instant events; recorders assign it in
    emission order. *)

val event_to_string : event -> string

(** {1 Segments} *)

type t
(** A trace segment: events in canonical order — by time, then
    finishes-before-starts (busy intervals are half-open, so an operation
    ending at [t] precedes one starting at [t]), then [seq].

    Represented as four int columns — time, seq, task and a packed
    kind/operation code (see {!Code}) — read through an offset and a
    length, so {!split} shares its input's columns and only {!events},
    {!project}, {!concat} and {!localize} build anything per event.  A
    segment is never mutated once handed out. *)

val events : t -> event list
(** The events as records, in canonical order: built on each call. *)

val length : t -> int

val concat : t -> t -> t
(** Splice two segments, first then second.
    @raise Invalid_argument if the first extends past the start of the
    second (segments may share their boundary instant). *)

val split : t -> at:int -> t * t
(** Cut at a time boundary: events strictly before [at], events at or
    after.  [concat (fst (split t ~at)) (snd (split t ~at))] is [t]. *)

type selector =
  | On_resource of resource
  | On_task of int
  | On_leg of int  (** every transfer and computation on one leg *)

val project : t -> selector -> t
(** The sub-segment a selector sees, order preserved.  Checking a
    projection with {!Check.unknown} is how violations are localized:
    exclusivity lives in [On_resource] projections, store-and-forward in
    [On_task] ones. *)

(** {1 Recording} *)

module Recorder : sig
  type t

  val create : unit -> t
end

val with_recorder : Recorder.t -> (unit -> 'a) -> 'a
(** Route every {!emit} in the callback (simulator instrumentation) into
    the recorder.  Like the [Obs] sink the hook is domain-local; nesting
    restores the previous recorder on exit.  On exit, also on exceptions,
    the events recorded meanwhile are counted as one [trace.events]
    increment. *)

val without_recorder : (unit -> 'a) -> 'a
(** Run the callback with no recorder installed on this domain, and
    restore the previous one on exit, also on exceptions: a simulation run
    only to decide something (the replanner's lookaheads) stays out of
    the trace of the run that is being recorded.  With no recorder
    installed it just calls the callback, allocating nothing. *)

val recording : unit -> bool
(** Whether a recorder is installed on this domain — lets instrumentation
    skip work (e.g. scheduling a completion callback) when nobody
    listens. *)

val emit : time:int -> task:int -> kind -> unit
(** Append one event to the installed recorder; a no-op without one.
    {!with_recorder} counts it as a [trace.events] on exit. *)

(** Packed event codes: an operation is
    [leg lsl 21 lor pos lsl 1 lor is_compute] ([pos] the hop or depth,
    below [2{^20}]), an event kind on it [op lsl 2 lor tag] with tag 0
    finish, 1 start, 2 abort, and 3 alone a return.  Finishes rank first
    at an instant because their tag is 0. *)
module Code : sig
  val transfer : leg:int -> hop:int -> int
  (** @raise Invalid_argument if [leg < 0] or [hop] is outside
      [0 .. 2{^20}-1]; likewise {!compute}. *)

  val compute : leg:int -> depth:int -> int
  val start : int -> int
  val finish : int -> int
  val abort : int -> int
  val return : int

  val pos : int -> int
  (** An operation's hop or depth. *)

  val is_compute : int -> bool
end

val emit_code : time:int -> task:int -> int -> unit
(** {!emit} of an already packed code: what the simulator calls, so a
    recorded event costs four int writes into the recorder's columns and
    no allocation. *)

val recorded : Recorder.t -> t
(** The trace recorded so far, in canonical order.  The recorder's
    columns start at 512 events, past the minor heap's size limit, and
    double as needed.  Events emitted in time order — what every
    simulator entry point does — are put in canonical order in place by
    one O(n) pass that moves each instant's finishes ahead of its other
    events, and the result shares the recorder's columns; events emitted
    out of time order are copied and stably sorted, O(n log n). *)

(** {1 Planned traces} *)

val of_plan : Msts_schedule.Plan.t -> t
(** The trace a plan promises ({!Msts_schedule.Plan.to_spider}): each
    task's emissions at its communication dates, each execution at its
    start date, durations from the platform.  Feasible plan ⟺ clean trace
    ({!check}).  Built as columns and ordered by an in-place int sort on
    packed (time, rank, emission index) keys. *)

(** {1 Invariants} *)

type violation = {
  invariant : string;
      (** which rule broke: ["one-port"], ["link-exclusive"],
          ["cpu-exclusive"] , ["store-and-forward"], ["task-serial"],
          ["pairing"] or ["negative-date"] *)
  message : string;  (** human-readable, names tasks, resource and times *)
  witness : event list;  (** the offending events, in trace order *)
}

module Check : sig
  type state
  (** The threaded precondition of a segment: per-resource open operations
      and per-task progress (hops received, operation in flight), held in
      int arrays over dense resource and task slots, the open operations
      in a node pool.  A step allocates nothing unless it flags a
      violation: only then are the event records, the witness and the
      message built. *)

  val strict : unit -> state
  (** The initial state of a complete execution: all resources free, every
      task at the master.  Unmatched finishes are violations. *)

  val unknown : unit -> state
  (** The agnostic precondition for a segment cut out of a larger trace:
      first contact with a resource or task {e infers} its state instead of
      constraining it, so only contradictions within the segment are
      flagged. *)

  val segment : state -> t -> violation list
  (** Run the invariant machines over one segment, mutating [state] so the
      next segment continues where this one stopped —
      [segment st (concat a b) = segment st a @ segment st b].  Counts
      [trace.segments_checked]. *)
end

val check : ?require_nonnegative:bool -> t -> violation list
(** Whole-trace audit from {!Check.strict}: one-port exclusivity at the
    master, per-link and per-processor exclusivity, store-and-forward
    ordering, task serialization, start/finish pairing — Definition 1
    restated on events.  [require_nonnegative] (default [false]) also
    flags events dated before time 0.  Runs under the [trace.check] span;
    counts [trace.violations] when any are found.  [[]] = safe. *)

val check_segment : t -> violation list
(** {!Check.segment} from {!Check.unknown} — audit a segment in
    isolation.  Documented in docs/VERIFICATION.md. *)

val localize : t -> violation -> t
(** The minimal sub-segment exhibiting a violation: project onto the
    violated resource (exclusivity) or task (ordering), then cut down to
    the window spanned by the witness events.  For any violation found by
    {!check}, re-checking the localized segment with {!check_segment}
    reproduces it whenever the witness carries the establishing event
    (exclusivity and serialization violations always do). *)

val report : t -> violation list -> string
(** Human-readable audit report: each violation with its localized
    segment; ["all invariants hold"] on []. *)
