(** Deadline variant of the chain algorithm (paper §7).

    Same backward construction but started at a caller-supplied time limit
    [T_lim] instead of T∞, and stopped as soon as a task's first emission
    would fall before time 0 (or once [max_tasks] tasks are placed).  The
    paper proves (via the spider optimality argument of Lemma 4) that this
    schedules the largest possible number of tasks completing within
    [T_lim].

    Dates are absolute in [\[0, T_lim\]] — no final shift is applied, since
    the emission times are reused by the spider transformation. *)

val schedule :
  ?max_tasks:int -> Msts_platform.Chain.t -> deadline:int -> Msts_schedule.Schedule.t
(** Largest schedule fitting in [\[0, deadline\]]; at most [max_tasks] tasks
    when given.  Tasks are renumbered 1.. in emission order.
    @raise Invalid_argument on a negative deadline or negative
    [max_tasks]. *)

val construction :
  ?max_tasks:int -> Msts_platform.Chain.t -> deadline:int -> Incremental.t
(** {!schedule}'s construction, filled but not materialised: placement
    [i] of the result is task [placed − i] of {!schedule}.  The spider
    algorithm reads its legs off these flat arrays.  Same span
    ([chain.deadline.schedule]) and errors as {!schedule}. *)

val max_tasks : Msts_platform.Chain.t -> deadline:int -> int
(** Number of tasks {!schedule} places (without building its plan). *)

val min_makespan_via_deadline : Msts_platform.Chain.t -> int -> int
(** Optimal makespan for [n] tasks recovered by binary-searching the least
    deadline [d] with [max_tasks d >= n] — used in tests as an independent
    cross-check of {!Algorithm.makespan} (the two must agree).  The search
    is warm-started at {!Msts_schedule.Bounds.spider_combined_bound} of
    [Spider.of_chain] (provably
    [<= OPT]); each probe bumps the [chain.deadline.search_probes]
    counter. *)
