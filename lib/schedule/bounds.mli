(** Lower bounds on the optimal makespan.

    Used by the experiment harness to situate the optimal schedule and the
    heuristics on an absolute scale, and by tests as one-sided oracles on
    instances too large for brute force: every bound here is provably
    [<= OPT]. *)

val port_bound : Msts_platform.Chain.t -> int -> int
(** Master-port argument: all [n] tasks cross link 1, one at a time, and the
    last one emitted still needs its best-case path and execution:
    [(n−1)·c₁ + min_k (c₁+…+c_k + w_k)].  0 when [n = 0]. *)

val capacity_bound : Msts_platform.Chain.t -> int -> int
(** Processing-capacity argument: within a horizon [M] processor [k]
    completes at most [⌊(M − (c₁+…+c_k))/w_k⌋] tasks (it cannot even
    receive anything earlier).  The bound is the least [M] whose total
    capacity reaches [n]. *)

val fluid_bound : Msts_platform.Chain.t -> int -> float
(** Divisible-load (fluid) relaxation, the model of the related work the
    paper contrasts itself with ([5][10][4]): tasks become an infinitely
    divisible load, latencies collapse into bandwidth caps.  With horizon
    [M], deliverable load beyond link [j] is
    [g(j) = min(M/c_j, M/w_j + g(j+1))]; the bound is the least [M] (real)
    with [g(1) >= n].  A valid relaxation: any integral schedule is a
    fluid one.

    The load is positively homogeneous in [M]:
    [min(M·a, M·b + M·g) = M·min(a, b + g)], so [g(1)] is [M·ρ] with ρ the
    steady-state rate {!Steady_state.chain_throughput}, and the least [M]
    is exactly [n /. ρ] — which is what this returns (0.0 when [n = 0]). *)

val combined_bound : Msts_platform.Chain.t -> int -> int
(** Max of the integer bounds (port, capacity, and ⌈fluid⌉). *)

val spider_port_bound : Msts_platform.Spider.t -> int -> int
(** One-port argument at the master when every leg is used: crude but safe —
    the [n]-th cheapest emission still has to complete somewhere:
    [(n−1)·min_l c₁(l) + min over addresses of (path + work)]. *)

val spider_capacity_bound : Msts_platform.Spider.t -> int -> int
(** Capacity argument summed over every processor of every leg. *)

val spider_fluid_bound : Msts_platform.Spider.t -> int -> float
(** Fluid relaxation for spiders: each leg can absorb at most its chain
    fluid load [g(1)] within horizon [M], and the master's port carries at
    most [M] time units of first-hop traffic ([Σ load_l·c₁(l) ≤ M]).
    Maximising total load under both caps is a fractional knapsack solved
    greedily by ascending [c₁]; the bound is the least [M] reaching [n].

    Every leg load is [M] times its rate and the port budget is [M], so
    the knapsack at horizon [M] is [M] times the one at horizon 1, which
    is {!Steady_state.spider_throughput}: the bound is exactly
    [n /. spider_throughput] (0.0 when [n = 0]). *)

val spider_combined_bound : Msts_platform.Spider.t -> int -> int
(** Max of the spider bounds (port, capacity, ⌈fluid⌉). *)
