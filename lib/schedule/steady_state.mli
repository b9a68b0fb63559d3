(** Bandwidth-centric steady-state throughput.

    The companion viewpoint from Beaumont et al. [2], which the paper cites
    for trees: ignore start-up and wind-down and ask how many tasks per time
    unit a platform absorbs in the long run.  For large [n] the optimal
    makespan behaves like [n/ρ + O(1)], which the tests and experiment E11
    verify against the exact algorithm.

    One recursion covers every platform.  The rate a subtree hanging from
    link [c_v] can absorb is [min(1/c_v, 1/w_v + alloc(children))], where
    [alloc] shares the node's unit outgoing port among its children as a
    fractional knapsack: a unit of rate to a child behind link [c] uses [c]
    of the port, each child is capped by its own subtree rate, and the port
    goes {e by ascending link latency} — the "bandwidth-centric" rule:
    priority to the child cheapest to feed, regardless of its speed.  Ties
    keep input order, and the shares are summed in that same order.  The
    master's children share the master's port the same way.

    Chains and spiders are trees ({!Msts_platform.Spider.of_chain},
    {!Msts_platform.Tree.of_spider}).  On a chain the port has one child,
    so the recursion reads [ρ(j) = min(1/c_j, 1/w_j + ρ(j+1))]; on a
    spider the master's port is shared among the legs, each capped by its
    chain rate.

    This is both an extension (the paper only handles chains and spiders
    exactly) and a diagnostic: for large [n] the best finite schedules
    approach [n/ρ]. *)

val tree_throughput : Msts_platform.Tree.t -> float
(** ρ: tasks per time unit the tree absorbs in steady state. *)

val chain_throughput : Msts_platform.Chain.t -> float
(** Tasks per time unit a chain absorbs in steady state. *)

val spider_leg_rates : Msts_platform.Spider.t -> float array
(** Per-leg rates of the optimal steady state, in leg order; legs sharing
    a first-hop latency are served in leg order. *)

val spider_throughput : Msts_platform.Spider.t -> float
(** The sum of {!spider_leg_rates}, taken in serving order. *)
