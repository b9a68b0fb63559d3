(** Chain schedules (paper Definition 1).

    A schedule for [n] tasks on a chain assigns each task [i] a processor
    [P(i)], a start time [T(i)], and a communication vector
    [C(i) = (C¹ᵢ, ..., C^{P(i)}ᵢ)].  This module stores schedules, computes
    the makespan (Definition 2) and the tasks per processor.  Feasibility is {!Plan.check}'s job, on the
    one-leg spider view of the schedule. *)

type entry = {
  proc : int;  (** P(i): executing processor, 1-indexed *)
  start : int;  (** T(i) *)
  comms : Comm_vector.t;  (** C(i); [Array.length comms = proc] *)
}

type t

val make : Msts_platform.Chain.t -> entry array -> t
(** [make chain entries] with [entries.(i-1)] describing task [i].
    Performs only structural validation (each [comms] length equals [proc],
    [proc] within the chain); temporal feasibility is {!Plan.check}'s job.
    @raise Invalid_argument on structural errors. *)

val chain : t -> Msts_platform.Chain.t

val task_count : t -> int

val entry : t -> int -> entry
(** [entry t i] for task [i] in [1..task_count t]. *)

val entries : t -> entry array
(** Fresh copy of all entries. *)

val makespan : t -> int
(** Definition 2: [max_i (T(i) + w_{P(i)})].  0 for an empty schedule. *)

val normalise : t -> t
(** Shift so that the earliest emission is at time 0. *)

val tasks_on : t -> int -> int list
(** Tasks executed on a given processor, in start-time order. *)

val restrict_beyond_first : t -> t
(** Sub-schedule of the tasks with [P(i) ≥ 2], re-indexed and expressed on
    the sub-chain [(cᵢ,wᵢ), i ≥ 2] — the object of Lemma 2.  Dates are
    {e not} shifted; pair with {!normalise} to compare schedules.
    @raise Invalid_argument on a single-processor chain. *)

val equal : t -> t -> bool
(** Same chain, same entries (dates included). *)

val equal_modulo_shift : t -> t -> bool
(** Equal after normalising both. *)

val to_string : t -> string
