(** Spider schedules (paper §6–7).

    Each task is routed down one leg of the spider; within the leg the chain
    rules of Definition 1 apply, and across legs the master may drive only
    one outgoing transfer at a time (its port is busy for [c₁] of the chosen
    leg at each emission).

    A schedule is stored as int columns ({!Columns}), with no record per
    task.  Every way to build one, {!of_columns} and the derived schedules
    ({!filter_tasks}, {!concat}, {!shift}, a chain's view), checks or
    keeps each task's leg and depth within the spider; readers use
    {!leg}, {!depth}, {!start} and {!emission}. *)

type t
(** Stored as {!Columns}: the legs, the starts, the offsets and one
    emission column of [Σ depth] dates — four int blocks, [3 + depth]
    words a task.  A task's depth is the length of its vector, so no
    column stores it, and a one-leg spider (a chain's view) keeps no leg
    column. *)

val of_columns :
  Msts_platform.Spider.t ->
  legs:int array ->
  starts:int array ->
  offsets:int array ->
  emissions:int array ->
  t
(** The validating constructor.  Task [i] is routed down leg
    [legs.(i-1)] and starts at [starts.(i-1)]; its emissions along the leg
    are [emissions.(offsets.(i-1) .. offsets.(i) - 1)], so its depth is
    [offsets.(i) - offsets.(i-1)].  The arrays are taken over, not
    copied, and must not be written afterwards.  Structural validation
    only (column lengths, legs and depths within the spider).
    @raise Invalid_argument on structural errors. *)

val spider : t -> Msts_platform.Spider.t

val columns : t -> Columns.t
(** The columns themselves, shared. *)

val task_count : t -> int

val leg : t -> int -> int
(** [leg t i]: the leg task [i] (in [1..task_count t]) is routed down. *)

val depth : t -> int -> int
(** Its depth on that leg, the length of its emission vector. *)

val start : t -> int -> int
(** T(i). *)

val emission : t -> int -> int -> int
(** [emission t i k]: the start of task [i]'s transfer over hop [k] of its
    leg, [k] in [1..depth t i]; hop 1 is the master's port.  Reads the
    column; allocates nothing. *)

val makespan : t -> int

val tasks_on_leg : t -> int -> int list
(** Tasks routed down leg [l], in first-emission order. *)

val leg_schedule : t -> int -> Schedule.t
(** The chain schedule induced on leg [l] (possibly empty). *)

val violations : ?require_nonnegative:bool -> t -> (int * string) list
(** The Definition 1 audit: per leg (in leg order) the chain rules, tasks
    numbered within their leg, then the master's one-port rule.  Each
    violation is [(leg, message)], leg [0] for the master port; [[]] means
    feasible.  [require_nonnegative] (default [false]) also flags dates
    before 0. *)

val check : ?require_nonnegative:bool -> t -> string list
(** {!violations} spelled ["leg l: ..."] and ["master port: ..."]. *)

val is_feasible : ?require_nonnegative:bool -> t -> bool

val meets_deadline : t -> deadline:int -> bool

val of_chain_schedule : Schedule.t -> t
(** View a chain schedule as a one-leg spider schedule.  A chain's
    processor is its depth on leg 1 and a one-leg spider keeps no leg
    column, so the view shares the chain's columns: it costs the one-leg
    spider and a record, whatever the task count. *)

val shift : t -> delta:int -> t
(** All dates (starts and emissions) moved by [delta], into two new
    columns (the legs and offsets are shared) — re-anchors a plan
    computed from time 0 at an absolute date, e.g. when splicing a
    replanned suffix into a running execution.
    @raise Invalid_argument if any date would become negative. *)

val filter_tasks : t -> keep:(int -> bool) -> t
(** Sub-schedule of the tasks whose (1-based) index satisfies [keep];
    survivors are renumbered consecutively, task order preserved.  The
    filtered columns go through {!of_columns}' checks (prefixed
    [Spider_schedule.filter_tasks]), so a slip in the filter fails here,
    not where a task is next read. *)

val equal : t -> t -> bool
(** Same spider, same tasks (routes, starts and emission dates all
    included). *)

val concat : t -> t -> t
(** Tasks of both schedules, first then second, renumbered — the splice
    of two partial schedules.  The appended columns go through
    {!of_columns}' checks (prefixed [Spider_schedule.concat]), so a slip
    in the splice fails here.  Feasibility of the result is the caller's
    claim to check.
    @raise Invalid_argument if the spiders differ. *)

val to_string : t -> string
