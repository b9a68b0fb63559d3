(** ASAP timing of a fixed destination sequence — the one sweep behind the
    exhaustive oracles, the forward heuristics and the local search, for
    trees, spiders ([Tree.of_spider]) and chains ([Spider.of_chain] first).

    Given the order in which the master emits tasks and each task's
    destination, every hop claims the {e sender}'s outgoing port (the only
    shared resource in a tree under the one-port model — a node's incoming
    link has a single writer, so receive exclusivity is automatic).  Ports
    serve hops in request (FIFO) order.  With the order fixed, every
    Definition 1 constraint is a lower bound that the sweep attains
    pointwise, so ASAP timing is makespan-optimal for its sequence.  On
    chains and spiders tasks are identical, so any feasible schedule can be
    renamed into FIFO order and minimising over sequences yields the true
    optimum (the brute-force oracle). *)

type state

val start : Flat.t -> state

val copy : state -> state

val push : state -> dest:int -> Tree_schedule.entry
(** Route one more task to node [dest].
    @raise Invalid_argument on an unknown node. *)

val of_sequence : Flat.t -> int array -> Tree_schedule.t

val makespan : Flat.t -> int array -> int
