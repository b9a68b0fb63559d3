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
    optimum (the brute-force oracle).

    {!push} returns a task's start and writes its emission dates into the
    caller's array, so a search that only needs makespans keeps one
    scratch vector ({!hops}) and {!of_sequence} writes the plan's columns
    in place: no record is built per task. *)

type state

val start : Flat.t -> state

val copy : state -> state

val push : state -> dest:int -> emissions:int array -> pos:int -> int
(** Route one more task to node [dest]: its emission date at each hop of
    the node's path is written into [emissions] from [pos] (the path's
    length of ints), and its start date is returned.  Allocates nothing.
    @raise Invalid_argument on an unknown node. *)

val hops : Flat.t -> int array
(** A scratch vector long enough for {!push} at [~pos:0] on any node. *)

val of_sequence : Flat.t -> int array -> Tree_schedule.t
(** The ASAP schedule of the sequence, its dates written straight into
    the plan's columns. *)

val makespan : Flat.t -> int array -> int
