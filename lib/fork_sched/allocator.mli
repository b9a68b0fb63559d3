(** Greedy one-port allocation on single-task virtual nodes (paper §6).

    After expansion the master's port is the only shared resource, and any
    feasible set of virtual nodes can be emitted in non-increasing order of
    remaining work [W]: with nodes so ordered, the set fits a deadline
    [T_lim] iff every prefix satisfies [Σ_{k≤j} c_k + W_j ≤ T_lim].

    The algorithm considers candidate nodes in ascending [(comm, work)]
    order and inserts each one whenever the accepted set stays feasible,
    stopping once [budget] tasks are placed.  This is the Beaumont et al.
    fork-graph algorithm recalled in §6, re-implemented from that
    description and cross-validated against brute force in the tests. *)

type allocation = {
  node : Expansion.vnode;
  emission : int;  (** start of the transfer on the master's port *)
  position : int;  (** 0-based position in emission order *)
}

val allocate :
  Expansion.vnode list -> deadline:int -> budget:int -> allocation list
(** Accepted nodes in emission order (non-increasing [work], transfers
    back-to-back from time 0): the list is sorted by [position], which
    runs [0, 1, ...], so callers need not re-sort it.  Candidates are
    re-sorted internally, so any order is accepted.
    @raise Invalid_argument on negative deadline or budget. *)

val max_tasks : Msts_platform.Fork.t -> deadline:int -> budget:int -> int
(** Expand the fork ([budget] ranks per slave) and count the accepted
    nodes. *)
