(** Anytime chain scheduling: tasks arrive over time, the solver emits
    deltas, and the plan's past is immutable.

    A session wraps {!Msts.Chain_incremental}: the backward §3 construction
    places each new arrival {e earlier} on the timeline than everything
    placed before it, so the plan grows from the deadline toward time 0
    while execution consumes it from time 0 toward the deadline.  The
    session tracks the execution {e frontier}: placements whose first
    emission falls behind the frontier are {e frozen} (they have started;
    they can never be displaced), and new arrivals are only admitted at or
    after the frontier.  When the region between frontier and deadline
    fills up, arrivals are rejected until the deadline is {!extend}ed; a
    mid-run processor degradation ({!degrade}) re-places every not-yet-
    frozen task on the degraded chain, extending the deadline by exactly
    the slack the slower platform needs.

    Cost model: one arrival is a single O(p) sweep of
    [Msts.Chain_kernel], the library's one placement kernel, and — once the
    session's buffers have warmed up (or were preallocated with
    [~capacity]) and no [emit] callback is installed — performs {e zero}
    minor-heap allocation.  Freezing, extension and degradation are O(k·p)
    in the affected placements and may allocate; they are rare control
    events, not the arrival hot path.  [BENCH_online.json] gates both
    properties.

    Storage: a frozen task is copied, the moment it freezes, onto the
    session's frozen store: growable int columns of arrival ids, starts,
    offsets and one emission column, [3 + P(i)] words a task and no
    record.  {!plan} and {!frozen_schedule} blit those columns into a
    {!Msts.Schedule.t}, and {!frozen_since} hands executors the newly
    frozen tail the same way.

    Telemetry: sessions count [online.sessions], [online.arrivals],
    [online.placed], [online.rejected], [online.frozen],
    [online.displaced], [online.extends] and [online.replans], and record
    the arrival-to-placement latency histogram [online.place_us]
    (docs/OBSERVABILITY.md). *)

type t

(** One plan change, in the order emitted.  [Placed]/[Displaced]/[Rejected]
    name tasks by their arrival number (1-based, assigned in submission
    order); dates are absolute simulated times. *)
type delta =
  | Placed of { task : int; proc : int; start : int; comms : int array }
      (** a new arrival was admitted at this position *)
  | Displaced of { task : int; proc : int; start : int; comms : int array }
      (** an unfrozen task moved (deadline extension or replan) *)
  | Rejected of { task : int }
      (** no feasible position between frontier and deadline; resubmit
          after {!extend} *)
  | Frozen of { frontier : int; tasks : int }
      (** the execution frontier advanced; [tasks] more placements are now
          immutable *)

type replan = { replaced : int; extended_by : int; deadline : int }
(** Outcome of an adopted {!degrade}: how many unfrozen tasks were
    re-placed, and how far (possibly 0) the deadline moved to fit them on
    the degraded platform. *)

val create : ?capacity:int -> Msts.Chain.t -> deadline:int -> t
(** Open a session on [chain] with the given deadline.  [capacity]
    preallocates placement storage (see the cost model above).
    @raise Invalid_argument on a negative deadline or capacity. *)

val chain : t -> Msts.Chain.t
(** Current platform (reflects adopted degradations). *)

val deadline : t -> int
val frontier : t -> int

val placed : t -> int
(** Tasks currently in the plan (frozen + revisable). *)

val rejected : t -> int

val frozen : t -> int
(** Placements behind the frontier — the immutable prefix. *)

val submit : ?emit:(delta -> unit) -> t -> int -> int
(** [submit t n] feeds [n] arrivals, one at a time, emitting a [Placed] or
    [Rejected] delta each; returns how many were placed.  Arrivals are
    placed no earlier than the frontier (and no earlier than history made
    immutable by past extensions), so the frozen prefix is never
    re-entered.  @raise Invalid_argument when [n < 0]. *)

val advance : ?emit:(delta -> unit) -> t -> time:int -> int
(** Move the execution frontier to [time] (monotone: earlier times are
    no-ops).  Placements whose first emission now lies behind the frontier
    freeze, newest-emission last, and a single [Frozen] delta summarises
    them; returns the newly frozen count. *)

val extend : ?emit:(delta -> unit) -> t -> deadline:int -> (int, string) result
(** Grow the deadline.  With nothing frozen this is an exact uniform shift
    of the whole construction (the sweep is shift-equivariant), so the
    session stays byte-identical to a batch solve at the new deadline.
    With frozen placements the revisable suffix is rebuilt at the new
    horizon and must clear the frozen prefix's last activity; an extension
    too small to do so is refused ([Error], message names the minimal
    acceptable deadline).  Every surviving placement moves: one
    [Displaced] delta each; returns how many.  Shrinking is refused. *)

val degrade :
  ?emit:(delta -> unit) ->
  t -> at:int -> work_factor:int -> (replan, string) result
(** Processor [at] slows by [work_factor] from the current frontier on.
    Every unfrozen task is re-placed on the degraded chain — the online
    rendezvous with the fault/replan machinery — and the deadline is
    extended by exactly the slack needed (possibly 0) for the new suffix
    to clear the frontier and the frozen prefix.  Emits [Displaced]
    deltas.  Refused ([Error]) when [at] holds frozen placements (their
    execution is already committed) or the arguments are invalid. *)

val plan : t -> Msts.Plan.t
(** Snapshot of the whole current plan — frozen prefix then revisable
    suffix, tasks renumbered 1.. in emission order; O(placed).  For
    [Plan.equal], [Plan.check], [Trace.of_plan]. *)

val frozen_schedule : t -> Msts.Schedule.t
(** The frozen prefix alone, as its own schedule — what has actually been
    executed; the object the trace invariants audit. *)

val frozen_since : t -> int -> int array * Msts.Schedule.t
(** [frozen_since t i] (0-based, [i <= frozen t]): the frozen tasks from
    the [i]-th on, in emission order, as their arrival ids and their own
    schedule (task [j] of it is the [(i + j)]-th frozen task); O(frozen t
    - i).  Lets executors stream trace events as the frontier advances.
    @raise Invalid_argument outside [0..frozen t]. *)
