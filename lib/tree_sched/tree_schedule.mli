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
    spider-cover pipeline are audited against.  A plan is stored in the
    int columns chain and spider plans use, and on a spider's tree
    {!to_spider} reads it as that spider's plan without copying its
    dates. *)

type t
(** Stored as {!Msts_schedule.Columns}, a node column in the leg
    column's place: per task its node, its start and its emission date at
    each hop of the node's path (one emission column cut by offsets), so
    a task's depth is its vector's length.  That is four int blocks and
    [3 + depth] words a task, and no record per task. *)

val of_columns :
  Flat.t ->
  nodes:int array ->
  starts:int array ->
  offsets:int array ->
  emissions:int array ->
  t
(** The validating constructor.  Task [i] runs on node [nodes.(i-1)] from
    [starts.(i-1)]; its emissions along the node's path are
    [emissions.(offsets.(i-1) .. offsets.(i) - 1)].  The arrays are taken
    over, not copied, and must not be written afterwards.  Structural
    validation only (column lengths, node ids, each vector as long as its
    node's path).
    @raise Invalid_argument on structural errors. *)

val flat : t -> Flat.t

val task_count : t -> int

val node : t -> int -> int
(** [node t i]: the node task [i] (in [1..task_count t]) runs on. *)

val makespan : t -> int

val to_spider : Msts_platform.Spider.t -> t -> Msts_schedule.Spider_schedule.t
(** [to_spider s t] reads a schedule on [Tree.of_spider s] as a spider
    schedule: node k runs at the k-th address of [Spider.addresses s].
    Only the node column is relabelled (to legs); the starts, offsets and
    emissions are shared.  A chain schedule is leg 1 of the schedule on
    [Spider.of_chain c] ({!Msts_schedule.Spider_schedule.leg_schedule}).
    @raise Invalid_argument if the node counts differ. *)

val tasks_on : t -> int -> int list
(** Tasks executed on a node, in start order. *)

val check : ?require_nonnegative:bool -> t -> string list
(** Definition 1 generalised to trees; empty list = feasible. *)

val is_feasible : ?require_nonnegative:bool -> t -> bool
