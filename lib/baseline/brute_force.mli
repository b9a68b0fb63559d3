(** Exact oracles by exhaustive search.

    Enumerates every destination sequence (the order in which the master
    emits tasks, each with a target processor) and times it with the ASAP
    sweep — see {!Msts_tree.Asap} for why this search space contains an
    optimal schedule.  A spider is searched as the tree [Tree.of_spider],
    a chain as the one-leg spider [Spider.of_chain]
    ({!Msts_tree.Search}).  Cost is [pⁿ·O(n·p)], so the oracles are
    reserved for the small instances the optimality tests run on. *)

val chain_makespan : Msts_platform.Chain.t -> int -> int
(** Optimal makespan for [n] tasks on a chain.  0 when [n = 0].
    @raise Invalid_argument if [n < 0]. *)

val spider_makespan : Msts_platform.Spider.t -> int -> int
(** Optimal makespan for [n] tasks on a spider. *)

val max_tasks : Msts_platform.Spider.t -> deadline:int -> limit:int -> int
(** Largest [m <= limit] schedulable within [deadline] (exact counterpart
    of {!Msts_spider.Algorithm.max_tasks}, and of
    {!Msts_chain.Deadline.max_tasks} on [Spider.of_chain]). *)

val chain_makespan_pruned : Msts_platform.Chain.t -> int -> int
(** Same optimum as {!chain_makespan}, computed by a level-by-level state
    search with {e dominance pruning}: after placing [k] tasks the future
    depends only on the resource clocks (per-link and per-processor free
    times) plus the partial makespan, and a state that is componentwise ≤
    another can be dropped.  Reaches noticeably larger [n] than plain
    enumeration, which makes it the second, independent exact oracle the
    optimality tests cross-check against. *)
