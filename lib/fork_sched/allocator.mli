(** Greedy one-port allocation on single-task virtual nodes (paper §6).

    After expansion the master's port is the only shared resource, and any
    feasible set of virtual nodes can be emitted in non-increasing order of
    remaining work [W]: with nodes so ordered, the set fits a deadline
    [T_lim] iff every prefix satisfies [Σ_{k≤j} c_k + W_j ≤ T_lim].

    The algorithm considers candidate nodes in ascending [(comm, work)]
    order and accepts each one whenever the accepted set stays feasible,
    stopping once [budget] tasks are placed.  This is the Beaumont et al.
    fork-graph algorithm recalled in §6, re-implemented from that
    description and cross-validated against brute force and against the
    insertion loop it replaced (frozen in the tests) on every budget.
    {!sweep} is its one entry point: candidates come as arrays, already
    in allocation order ({!Expansion.expand}'s order on a fork, a merge of
    the legs in the spider algorithm).

    A candidate [(c, w)] lands after every accepted node of work [≥ w];
    it fits iff its own transfer ends by [T_lim − w] and every node behind
    it keeps a slack [T_lim − (transfer end) − W ≥ c], since accepting it
    pushes each of those transfers [c] later.  The candidates are swept one
    comm class at a time:
    - inside a class the works rise, so the landing point only moves
      toward higher work and the nodes behind it only grow in number;
    - their slacks only fall, all by the same [c] per accept, so one
      running minimum decides each candidate;
    - a node joins the set behind when the work passes its own, with the
      slack it had at the class start or at its accept (an equal-work node
      of the class joins when the work value rises);
    - at each class boundary the class is merged into the accepted order
      and the prefix comms and slacks are rebuilt.
    That is O(N·K) for [N] candidates in [K] distinct comm values (on a
    spider, at most the number of legs), not the O(N·accepted) of
    inserting each candidate by a scan. *)

val sweep : comm:int array -> work:int array -> deadline:int -> budget:int -> int array
(** Candidate [i] has [comm.(i)] and [work.(i)], given in allocation
    order: [(comm, work)] non-decreasing, ties in the order the caller
    wants them considered.  Returns the indices of the accepted candidates
    in emission order (non-increasing work, ties in arrival order); the
    transfers run back-to-back from time 0.  Emits the [fork.allocate]
    span and the [fork.nodes_considered], [fork.insert_probes] and
    [fork.nodes_accepted] counters.
    @raise Invalid_argument on arrays of different lengths, candidates
    out of order, or a negative deadline or budget. *)
