(** Virtual-node expansion of fork slaves (paper §6, Figure 6).

    A slave [(c, w)] that may run any number of tasks is replaced by a bank
    of single-task virtual slaves [(c, w + r·m)] for ranks [r = 0, 1, ...]
    with [m = max(c, w)]: if a slave completes [k] tasks by the deadline,
    its [j]-th-from-last task behaves — seen from the master's port — like a
    dedicated processor needing [w + (j−1)·m] time after its transfer.
    After this transformation the master's outgoing port is the only shared
    resource, which is what makes the greedy allocation argument work. *)

type vnode = {
  slave : int;  (** originating slave (or spider leg), 1-indexed *)
  rank : int;  (** 0-based rank within the slave's bank *)
  comm : int;  (** transfer time on the master's port *)
  work : int;  (** remaining time needed after the transfer completes *)
}

val virtual_work : c:int -> w:int -> rank:int -> int
(** [w + rank·max(c,w)]. *)

val expand : Msts_platform.Fork.t -> count:int -> vnode list
(** Bank of [count] virtual nodes per slave, sorted in allocation order:
    ascending [comm], ties by ascending [work] (paper §6), then by slave
    index for determinism. *)
