(** Forward list heuristics and the spider-cover pipeline.

    The forward heuristics are the natural competitors a practitioner
    would reach for before reading the paper: emit tasks forwards
    (earliest first), choose each task's destination with a myopic rule,
    and time everything ASAP.  None is optimal in general.  They run on
    trees, so chains and spiders reach them through [Tree.of_spider].

    Optimal tree scheduling is the open problem the paper closes with; what
    it proposes is to {e cover} the tree with structures it can schedule
    optimally.  This module implements that pipeline — extract a spider
    (see {!Msts_platform.Tree.extract_spider}), schedule it with the §7
    algorithm, and read the result back as a tree schedule — next to the
    myopic forward heuristics one would otherwise use. *)

type policy =
  | Earliest_completion
      (** one-step lookahead: send to the node finishing this task soonest
          (ties to the lower node id) *)
  | Round_robin  (** cycle through the nodes in preorder *)
  | First_node  (** every task on node 1, the master's first child *)
  | Fastest_processor  (** always the node with minimal [w], ties to the lower id *)
  | Random of int  (** uniform destination, seeded *)

val chain_policies : (string * policy) list
(** The rules reported for a chain, with their labels, in report order
    ([First_node] is labelled [master-only]). *)

val spider_policies : (string * policy) list
(** The rules reported for a spider ([First_node] is [first-leg]). *)

val tree_policies : (string * policy) list
(** The rules reported for a tree ([First_node] is [root-only]). *)

val schedule : policy -> Msts_platform.Tree.t -> int -> Tree_schedule.t
(** Emit [n] tasks forwards, choosing each destination with the rule and
    timing it with {!Asap}.  Feasible by construction.  A spider runs on
    [Tree.of_spider] (see {!Tree_schedule.to_spider}), a chain on the
    spider [Spider.of_chain] first.
    @raise Invalid_argument if [n < 0]. *)

val makespan : policy -> Msts_platform.Tree.t -> int -> int

val spider_cover :
  Msts_platform.Tree.extraction_policy -> Msts_platform.Tree.t -> int ->
  Tree_schedule.t
(** Extract a spider with the given policy, schedule [n] tasks optimally on
    it (§7), and replay the result on the tree (the unused subtrees stay
    idle).  Feasible on the tree because the legs are node-disjoint paths
    sharing only the master.  The cover shares the spider plan's starts,
    offsets and emissions: only its node column is new. *)

val spider_cover_makespan :
  Msts_platform.Tree.extraction_policy -> Msts_platform.Tree.t -> int -> int

val best_cover : Msts_platform.Tree.t -> int -> Msts_platform.Tree.extraction_policy * int
(** The best of the three extraction policies for this instance. *)
