(** Schedules on general trees.

    The same model as chains and spiders, generalised: every node (master
    included) sends at most one task at a time through its single outgoing
    port — so an inner node with several children must serialise transfers
    to {e all} of them — receives at most one at a time (automatic in a
    tree: one incoming link), and computes one task at a time, with
    communication/computation overlap and store-and-forward relaying.

    The paper leaves optimal tree scheduling open; this module provides the
    representation and the independent feasibility checker that the
    heuristics of {!Heuristics}, the search of {!Search} and the
    spider-cover pipeline are audited against. *)

type entry = {
  node : int;  (** executing node id (see {!Flat}) *)
  start : int;
  comms : int array;  (** emission time of each hop along the path *)
}

type t

val make : Flat.t -> entry array -> t
(** Structural validation (node ids, comm vector lengths).
    @raise Invalid_argument on structural errors. *)

val flat : t -> Flat.t

val entries : t -> entry array

val makespan : t -> int

val to_spider : Msts_platform.Spider.t -> t -> Msts_schedule.Spider_schedule.t
(** [to_spider s t] reads a schedule on [Tree.of_spider s] as a spider
    schedule: node k runs at the k-th address of [Spider.addresses s].  A
    chain schedule is leg 1 of the schedule on [Spider.of_chain c]
    ({!Msts_schedule.Spider_schedule.leg_schedule}).
    @raise Invalid_argument if the node counts differ. *)

val tasks_on : t -> int -> int list
(** Tasks executed on a node, in start order. *)

val check : ?require_nonnegative:bool -> t -> string list
(** Definition 1 generalised to trees; empty list = feasible. *)

val is_feasible : ?require_nonnegative:bool -> t -> bool
