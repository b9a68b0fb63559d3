(** Per-resource measures of a plan, in one flat pass.

    The paper's Figure 2 points at a buffered task (received, then waiting
    for the processor); these measures make such phenomena measurable, and
    account for where the makespan went, resource by resource:

    - the master port's busy time (the quantity the paper's hull vector
      tracks);
    - per node, the busy time of the link into it and of its processor;
    - per processor a {e compute} / {e starved} / {e idle} partition of
      [\[0, makespan)]: "starved" is idle time before a later execution
      (waiting for input), "idle" the tail after its last task.  The three
      parts sum to the makespan exactly;
    - per processor the waiting of its tasks (a task waits from the end of
      its last transfer, [C_P + c_P], to its start [T(i)]) and the buffer
      high-water mark.

    A chain plan is measured as its one-leg spider ({!Plan.to_spider}).
    [msts metrics], the [metrics] and [report] ops and {!Msts_sim.Report}
    all read this record; none of it feeds back into the algorithms. *)

type node = {
  address : Msts_platform.Spider.address;
  tasks : int;  (** tasks executed here *)
  link_busy : int;  (** time the link into this node carries transfers *)
  compute : int;  (** time spent executing *)
  starved : int;  (** idle before a later execution *)
  idle : int;  (** idle after the last execution (or always, if unused) *)
  waiting : int;  (** sum over its tasks of start − arrival *)
  max_wait : int;  (** largest single wait, 0 if none is positive *)
  max_buffered : int;
      (** most tasks received here but not yet started at one time (a task
          starting at the instant another arrives does not overlap it) *)
}

type t = {
  tasks : int;
  makespan : int;
  port_busy : int;  (** time the master's port spends emitting *)
  nodes : node array;  (** address order: leg-major, shallow first *)
}

val of_spider_schedule : Spider_schedule.t -> t
(** O(n log n) time, O(n + nodes) words. *)

val of_plan : Plan.t -> t

val fraction : t -> int -> float
(** [fraction m busy] is [busy / m.makespan] (0 on an empty horizon). *)

val total_waiting : t -> int
(** Sum of all tasks' waits: how much buffering the schedule relies on. *)

val max_waiting : t -> int
(** Largest single wait (0 when no wait is positive). *)

val leg_tasks : t -> int -> int
(** Tasks routed down leg [l]. *)

val summary : Plan.t -> string
(** Multi-line report: for a chain, the waiting totals and one line per
    processor; for a spider, the master port's busy share and per leg one
    line per node. *)
