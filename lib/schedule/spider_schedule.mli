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
(** View a chain schedule as a one-leg spider schedule (its entries'
    communication vectors are shared, not copied). *)

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
