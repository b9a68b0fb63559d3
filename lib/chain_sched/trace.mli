(** Human-readable construction traces.

    Records every placement of the backward construction — candidates, the
    winner, hull and occupancy before the step — and renders the narrative
    the paper walks through on its Figure 2 example.  Used by the CLI's
    [explain] command and by tests that pin the worked example down
    step-by-step. *)

type t = {
  chain : Msts_platform.Chain.t;
  n : int;
  horizon : int;  (** the T∞ the construction started from *)
  steps : Algorithm.step list;  (** construction order: task [n] first *)
  result : Msts_schedule.Schedule.t;
}

val run : Msts_platform.Chain.t -> int -> t
(** Full construction of the [n]-task schedule with recording. *)

val render : t -> string
(** Multi-line narrative: per task, the candidate vector for each target
    processor, the winner, and the resulting start time. *)
