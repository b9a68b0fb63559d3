(** How many virtual nodes fit a deadline, without building the allocation.

    On the master's port a set of virtual nodes fits [T_lim] iff, emitted
    in non-increasing [work] order, every prefix satisfies
    [Σ_{k≤j} c_k + W_j ≤ T_lim] ({!Allocator}).  That is one machine
    whose jobs take [comm] and are due at [T_lim − work]: the most nodes
    that fit is the most on-time jobs, which Moore–Hodgson (1968) computes
    in one pass over the jobs in due-date order, dropping a longest held
    job whenever the running completion time overshoots.  The greedy
    {!Allocator.sweep} maximises the same count, so for any budget
    [count t ~deadline ~budget = Array.length (Allocator.sweep ~comm
    ~work ~deadline ~budget)] over the same nodes in allocation order.

    The due-date order (non-increasing [work]) does not depend on the
    deadline, so {!make} takes the nodes already in it: a node takes part
    at deadline [d] iff [comm + work ≤ d].  Nodes are grouped by their
    distinct [comm] values (on a spider, one per leg's first link), so a
    "longest held job" is found from one counter per group and a probe
    allocates nothing. *)

type t

val make : comm:int array -> work:int array -> t
(** Node [i] has [comm.(i)] and [work.(i)], the nodes given in due-date
    order: [work] non-increasing, ties in the order the scan should take
    them (the count does not depend on it, {!scanned} may).  Checks that
    order and fixes the comm groups: O(N·G) for [N] nodes and [G]
    distinct comm values, no sort.
    @raise Invalid_argument on arrays of different lengths, a negative
    [comm] or [work], or a [work] that rises. *)

val count : t -> deadline:int -> budget:int -> int
(** [min budget (most nodes that fit deadline)]: one pass over the nodes,
    O(N·G) for [G] distinct comm values at worst, stopping early once
    [budget] nodes are held; zero allocation.
    @raise Invalid_argument on a negative deadline or budget. *)

val scanned : t -> int
(** Nodes the last {!count} visited before it stopped. *)
