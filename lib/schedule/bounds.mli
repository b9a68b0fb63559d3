(** Lower bounds on the optimal makespan.

    Used by the experiment harness to situate the optimal schedule and the
    heuristics on an absolute scale, and by tests as one-sided oracles on
    instances too large for brute force: every bound here is provably
    [<= OPT].  A chain is bounded as the one-leg spider [Spider.of_chain]. *)

val spider_port_bound : Msts_platform.Spider.t -> int -> int
(** One-port argument at the master when every leg is used: crude but safe —
    the [n]-th cheapest emission still has to complete somewhere:
    [(n−1)·min_l c₁(l) + min over addresses of (path + work)]. *)

val spider_capacity_bound : Msts_platform.Spider.t -> int -> int
(** Processing-capacity argument: within a horizon [M] a processor whose
    path from the master has latency [L] and whose work time is [w]
    completes at most [⌊(M − L)/w⌋] tasks (it cannot even receive anything
    earlier).  The bound is the least [M] whose total capacity over every
    processor of every leg reaches [n]. *)

val spider_fluid_bound : Msts_platform.Spider.t -> int -> float
(** Divisible-load (fluid) relaxation, the model of the related work the
    paper contrasts itself with ([5][10][4]): tasks become an infinitely
    divisible load, latencies collapse into bandwidth caps.  A valid
    relaxation: any integral schedule is a fluid one.  With horizon [M],
    the load a leg can absorb beyond its link [j] is
    [g(j) = min(M/c_j, M/w_j + g(j+1))], and the master's port carries at
    most [M] time units of first-hop traffic ([Σ load_l·c₁(l) ≤ M]) with
    [load_l ≤ g(1)] of leg [l].
    Maximising total load under both caps is a fractional knapsack solved
    greedily by ascending [c₁]; the bound is the least [M] reaching [n].

    Every leg load is [M] times its rate and the port budget is [M], so
    the knapsack at horizon [M] is [M] times the one at horizon 1, which
    is {!Steady_state.spider_throughput}: the bound is exactly
    [n /. spider_throughput] (0.0 when [n = 0]). *)

val spider_combined_bound : Msts_platform.Spider.t -> int -> int
(** Max of the spider bounds (port, capacity, ⌈fluid⌉). *)
