(** Chain schedules (paper Definition 1).

    A schedule for [n] tasks on a chain assigns each task [i] a processor
    [P(i)], a start time [T(i)], and a communication vector
    [C(i) = (C¹ᵢ, ..., C^{P(i)}ᵢ)].  This module stores schedules as
    those three functions' int columns ({!Columns}), with no record per
    task: producers write the columns and hand them to {!of_columns},
    readers use {!proc}, {!start} and {!emission}.  It computes the
    makespan (Definition 2) and the tasks per processor.  Feasibility is
    {!Plan.check}'s job, on the one-leg spider view of the schedule. *)

type t
(** Stored as {!Columns}: the starts, the offsets and one emission column
    of [Σ P(i)] dates.  C(i) has P(i) dates, so its length is the
    processor and no column stores it: three int blocks, [2 + P(i)] words
    a task. *)

val of_columns :
  Msts_platform.Chain.t ->
  starts:int array ->
  offsets:int array ->
  emissions:int array ->
  t
(** The validating constructor.  Task [i] starts at [starts.(i-1)], and
    C(i) is [emissions.(offsets.(i-1) .. offsets.(i) - 1)], so it runs on
    processor [offsets.(i) - offsets.(i-1)].  The arrays are taken over,
    not copied, and must not be written afterwards.  Performs only
    structural validation (column lengths, every P(i) within the
    chain); temporal feasibility is {!Plan.check}'s job.
    @raise Invalid_argument on structural errors. *)

val chain : t -> Msts_platform.Chain.t

val columns : t -> Columns.t
(** The columns themselves, shared (a chain's spider view reads them). *)

val task_count : t -> int

val proc : t -> int -> int
(** [proc t i]: P(i), for task [i] in [1..task_count t] (the length of
    C(i)). *)

val start : t -> int -> int
(** T(i). *)

val emission : t -> int -> int -> int
(** [emission t i k]: C^k(i), the start of task [i]'s transfer over link
    [k], [k] in [1..P(i)].  Reads the column; allocates nothing. *)

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
(** Same chain, same tasks (dates included). *)

val equal_modulo_shift : t -> t -> bool
(** Equal after normalising both. *)

val to_string : t -> string
