(** Independent feasibility checker for chain schedules.

    Implements the four properties of Definition 1 verbatim; shares no code
    with the schedule constructors so it can serve as an oracle in tests:

    + a task is not re-emitted by a processor before its reception there has
      completed: [C^i_{k-1} + c_{k-1} <= C^i_k];
    + a task starts only after it has been fully received:
      [C^i_{P(i)} + c_{P(i)} <= T(i)];
    + two tasks executed on one processor do not overlap:
      [|T(i) - T(j)| >= w_{P(i)}];
    + two transfers on one link do not overlap: [|C^i_k - C^j_k| >= c_k].

    A fifth, optional property — all dates non-negative — corresponds to the
    paper's final normalisation (schedules start at time 0) and matters for
    the deadline variant of §7. *)

type violation =
  | Reemitted_before_received of { task : int; link : int }
      (** property 1 broken at [link] *)
  | Started_before_received of { task : int }  (** property 2 broken *)
  | Computation_overlap of { first : int; second : int; proc : int }
      (** property 3 broken on [proc] *)
  | Communication_overlap of { first : int; second : int; link : int }
      (** property 4 broken on [link] *)
  | Negative_date of { task : int }
      (** emission or start before time 0 (only with [~require_start_at_zero]) *)

val violation_to_string : violation -> string

val check : ?require_nonnegative:bool -> Schedule.t -> violation list
(** All violations, deterministically ordered.  [require_nonnegative]
    (default [false]) additionally enforces dates ≥ 0. *)

val is_feasible : ?require_nonnegative:bool -> Schedule.t -> bool

val meets_deadline : Schedule.t -> deadline:int -> bool
(** Feasible (with non-negative dates) and completing by [deadline]. *)
