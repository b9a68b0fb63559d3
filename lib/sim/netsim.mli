(** Event-driven execution of master-slave platforms.

    An independent execution substrate for the scheduling model: the master's
    port, every link and every processor are unit-capacity FIFO resources on
    the event engine, tasks are store-and-forward messages, and the one-port
    rule is enforced by construction.  A single executor runs every entry
    point below; each only chooses what the master emits and when:

    - {!execute}: release each task at the {e planned} emission time of
      a schedule and let the rest flow eagerly.  For a feasible plan the
      realised completion of every task is never later than planned — this
      validates schedules by actually executing them.
    - {!replay_routing}: a plan's routing and emission order under finite
      buffers or on a degraded platform, dates recomputed eagerly.  Its
      realised schedule is the eager execution of the plan's destination
      sequence, which must coincide exactly with the analytic ASAP timing
      of {!Msts_tree.Asap} on [Tree.of_spider] — the test suite uses this
      as a cross-validation of both.
    - {!pull_policy}: an online, demand-driven master (the SETI@home-style
      baseline): idle processors request work, the master serves requests
      first-come-first-served.  No global knowledge, no optimality.
    - {!replay_under_faults} / {!pull_under_faults}: the same under a
      scripted trace of mid-run faults.

    Operations that become startable at the same instant start in request
    order, as if every request had reserved its slot on arrival.

    Every entry point is instrumented for {!Msts_trace.Trace}: run it inside
    {!Msts_trace.Trace.with_recorder} and each grant, completion, abort and
    task return becomes a typed trace event, ready for the segment-algebra
    invariant checker.  Without a recorder the hooks are no-ops.

    Representation: tasks, their live operation, resources and queues are
    int arrays — per-task state in one block of columns, nodes numbered
    leg-major, resource 0 the port and [1 + 2 node] / [2 + 2 node] a
    node's link and processor, FIFO queues in one node pool — and every
    engine event is one int code [(b lsl w lor a) lsl 3 lor kind]: a
    resource's start event (a = resource, b = arm epoch), an operation's
    completion (a = task, b = grant stamp), the master's planned
    emission (b = port epoch), the master's wake-up under faults, a
    dropped transfer's retry (a = task, b = generation) or a fault
    (a = index in the trace), [2{^w}] exceeding every index.  An epoch,
    stamp or generation that moved on marks the event stale.  Trace
    events go to the recorder as packed codes
    ({!Msts_trace.Trace.emit_code}). *)

type execution_report = {
  realized : Msts_schedule.Spider_schedule.t;
  planned_makespan : int;
  realized_makespan : int;
  per_task_slack : int array;
      (** planned completion − realised completion, per task (≥ 0 for a
          feasible plan) *)
}

val execute : Msts_schedule.Plan.t -> execution_report
(** Unified executor over the polymorphic plan type: chain plans are
    promoted to one-leg spiders, spider plans run as-is.  The plan must be
    feasible with non-negative dates (checked; @raise Invalid_argument
    otherwise). *)

val pull_policy :
  ?buffer:int -> Msts_platform.Spider.t -> tasks:int -> Msts_schedule.Spider_schedule.t
(** Demand-driven online baseline.  [buffer] (default 1) is each
    processor's credit: how many tasks it may have queued or in flight
    before requesting more.  Initial requests are issued in address order.
    @raise Invalid_argument if [buffer < 1] or [tasks < 0]. *)

val replay_routing :
  ?buffer:int -> ?on:Msts_platform.Spider.t -> Msts_schedule.Spider_schedule.t ->
  execution_report
(** Execute a plan's {e decisions} — routing and emission order — under
    conditions the planner did not assume; the plan's dates are recomputed
    eagerly.  Two knobs:

    - [buffer]: each processor holds at most that many tasks that are
      present but not yet executing (a relay frees its slot when its
      outgoing transfer completes, a destination when execution starts).
      Default: unbounded, like the paper's model.  Deadlock-free: slots
      only flow forward along a leg.
    - [on]: run on this platform instead of the plan's own — it must have
      the same shape (legs and depths), but latencies and work times may
      differ.  This is the failure-injection hook: slow a node down and
      see what the static plan costs compared to replanning.

    The realised makespan can exceed the planned one when buffers stall
    the pipeline or the platform degraded.
    @raise Invalid_argument if [buffer < 1] or [on] has a different
    shape. *)

val degrade :
  ?latency_factor:int -> Msts_platform.Spider.t ->
  address:Msts_platform.Spider.address -> work_factor:int ->
  Msts_platform.Spider.t
(** A copy of the spider in which one processor's work time is multiplied
    by [work_factor] and its incoming link's latency by [latency_factor]
    (default 1, i.e. the link is untouched) — the standard fault model for
    the robustness experiments.  @raise Invalid_argument if either factor
    is [< 1]. *)

(** {2 Mid-run faults}

    The entry points above fix the platform before the run.  The two below
    accept a {!Fault.trace} of scripted mid-run events — slowdowns that
    stretch operations already in flight, transient transfer drops with
    retry after a backoff, and permanent crashes that cut off a leg's
    suffix (store-and-forward: nothing below a dead node is reachable).
    Tasks stranded at or in transit into dead nodes return to the master,
    which re-issues them from its own copy of the input data; completed
    results survive.  With an empty trace both reproduce their fault-free
    counterparts ({!replay_routing}, {!pull_policy} with [buffer = 1])
    exactly.  Under faults an operation starts the moment its resource
    frees, so same-instant ties may break differently from a fault-free
    run. *)

type fault_report = {
  observed : Msts_schedule.Spider_schedule.t;
      (** realised routing and {e grant} dates; durations are nominal, so
          under slowdowns this is the decision log, not the timing truth *)
  observed_makespan : int;  (** realised completion of the last task *)
  completions : int array;  (** realised completion time, per task *)
  aborted_ops : int;  (** operations cut short by drops and crashes *)
  returned_tasks : int;  (** tasks the master had to re-issue *)
  transfer_retries : int;  (** transfers re-attempted after a drop *)
}

val replay_under_faults :
  ?max_events:int ->
  ?trace:Fault.trace ->
  ?decide:(Fault.snapshot -> Fault.decision) ->
  ?decisions:Fault.decision list ->
  Msts_schedule.Spider_schedule.t -> fault_report
(** Execute a plan's decisions while the trace unfolds.  After processing
    each fault event the [decide] hook (default: always {!Fault.Keep}) sees
    a {!Fault.snapshot} and may redirect the tasks still at the master —
    {!Replan.replay} plugs the online replanner in here.  [decisions]
    instead replays a decision history, one per fault event and
    {!Fault.Keep} past its end, without building snapshots: what the
    replanner's lookahead simulations run.  Without a
    redirect the master is blind: when a destination dies, the task is
    retargeted to the deepest survivor of the same leg, or to the first
    surviving leg when the whole leg is gone.  [max_events] bounds the
    engine ({!Engine.run}): the fuzz harness uses it to turn a livelock
    into a failure.
    @raise Invalid_argument if the trace does not validate against the
    plan's platform, if a redirect names a dead processor or the wrong task
    set, if every processor crashes while tasks remain, or if both
    [decide] and [decisions] are given. *)

val pull_under_faults :
  ?max_events:int ->
  ?trace:Fault.trace -> Msts_platform.Spider.t -> tasks:int -> fault_report
(** The demand-driven baseline under the same fault model: requests from
    dead processors are discarded, returned tasks are re-served to the next
    requester, a dropped emission re-enters the queue after its backoff.
    @raise Invalid_argument as for {!replay_under_faults}. *)
