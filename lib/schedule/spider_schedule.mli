(** Spider schedules (paper §6–7).

    Each task is routed down one leg of the spider; within the leg the chain
    rules of Definition 1 apply, and across legs the master may drive only
    one outgoing transfer at a time (its port is busy for [c₁] of the chosen
    leg at each emission). *)

type entry = {
  address : Msts_platform.Spider.address;  (** executing processor *)
  start : int;  (** T(i) *)
  comms : Comm_vector.t;  (** emissions along the leg; length = depth *)
}

type t

val make : Msts_platform.Spider.t -> entry array -> t
(** Structural validation only (addresses and vector lengths).
    @raise Invalid_argument on structural errors. *)

val spider : t -> Msts_platform.Spider.t

val task_count : t -> int

val entry : t -> int -> entry

val entries : t -> entry array

val makespan : t -> int

val tasks_on_leg : t -> int -> int list
(** Tasks routed down leg [l], in first-emission order. *)

val leg_schedule : t -> int -> Schedule.t
(** The chain schedule induced on leg [l] (possibly empty). *)

val master_port_intervals : t -> int Intervals.interval list
(** Busy intervals of the master's single outgoing port. *)

val leg_link_intervals : t -> leg:int -> link:int -> int Intervals.interval list
(** Busy intervals of one link of one leg, tagged with {e global} task
    indices (unlike {!leg_schedule}, which renumbers per leg). *)

val leg_proc_intervals : t -> leg:int -> depth:int -> int Intervals.interval list
(** Busy intervals of one processor of one leg, tagged with global task
    indices. *)

val check : ?require_nonnegative:bool -> t -> string list
(** Human-readable violations: per-leg Definition 1 checks plus the master's
    one-port rule.  Empty list = feasible. *)

val is_feasible : ?require_nonnegative:bool -> t -> bool

val meets_deadline : t -> deadline:int -> bool

val of_chain_schedule : Schedule.t -> t
(** View a chain schedule as a one-leg spider schedule. *)

val shift : t -> delta:int -> t
(** All dates (starts and emissions) moved by [delta] — re-anchors a plan
    computed from time 0 at an absolute date, e.g. when splicing a
    replanned suffix into a running execution.
    @raise Invalid_argument if any date would become negative. *)

val filter_tasks : t -> keep:(int -> bool) -> t
(** Sub-schedule of the tasks whose (1-based) index satisfies [keep];
    survivors are renumbered consecutively, entry order preserved. *)

val equal : t -> t -> bool
(** Same spider, same entries (routes, starts and emission dates all
    included). *)

val concat : t -> t -> t
(** Entries of both schedules, first then second, renumbered — the splice
    of two partial schedules.  Purely structural: feasibility of the result
    is the caller's claim to check.
    @raise Invalid_argument if the spiders differ. *)

val to_string : t -> string
