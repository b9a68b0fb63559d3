(** Quantitative views of a schedule.

    The paper's Figure 2 points at a buffered task (received, then waiting
    for the processor); these metrics make such phenomena measurable:
    per-task waiting times, per-processor buffer high-water marks, and
    resource utilisation.  Used by the experiment harness and the
    examples; none of this feeds back into the algorithms. *)

val total_waiting : Schedule.t -> int
(** Sum of waiting times — a task waits from the end of its last transfer,
    [C_{P} + c_{P}], to its start [T(i)] — how much buffering the schedule
    relies on. *)

val max_waiting : Schedule.t -> int
(** Largest single wait (0 for an empty schedule). *)

val buffer_high_water : Schedule.t -> int -> int
(** [buffer_high_water t k] is the maximum number of tasks simultaneously
    received-but-not-yet-started on processor [k] (a task starting at the
    instant another arrives does not count as overlapping it). *)

val link_utilisation : Schedule.t -> int -> float
(** Busy fraction of link [k] over [\[0, makespan)]. *)

val proc_utilisation : Schedule.t -> int -> float
(** Busy fraction of processor [k] over [\[0, makespan)]. *)

val summary : Schedule.t -> string
(** Multi-line human-readable report of all the above. *)

val spider_master_utilisation : Spider_schedule.t -> float
(** Busy fraction of the master's port — the resource the whole paper is
    about saturating. *)

val spider_summary : Spider_schedule.t -> string
(** Multi-line report: master-port utilisation, then per-leg task counts,
    per-resource utilisation and buffering (via each leg's induced chain
    schedule). *)
