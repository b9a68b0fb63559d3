(** From an allocation to an executable fork schedule.

    Realises an {!Allocator} result as a concrete {!Msts_schedule}
    spider schedule (a fork is a depth-1 spider): transfers back-to-back on
    the master's port in the allocator's emission order, and each slave
    executing its tasks as soon as received (ASAP).  The virtual-node
    ranks guarantee every task still meets the deadline; the independent
    feasibility checker confirms it in the tests. *)

val schedule :
  Msts_platform.Fork.t -> deadline:int -> budget:int -> Msts_schedule.Spider_schedule.t
(** Run expansion + allocation and realise the result.  The schedule
    contains [Allocator.max_tasks] tasks. *)
