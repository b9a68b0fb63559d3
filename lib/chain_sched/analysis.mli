(** How optimal schedules use a chain.

    The questions a platform owner asks once makespans are optimal: which
    processors actually receive work, and how deep the load reaches as the
    batch grows.  Everything here just runs the §3 algorithm and summarises
    the result. *)

val tasks_per_processor : Msts_platform.Chain.t -> int -> int array
(** Index [k-1]: tasks executed on processor [k] in the optimal [n]-task
    schedule.  Entries sum to [n]. *)

val used_depth : Msts_platform.Chain.t -> int -> int
(** Deepest processor executing at least one task (0 when [n = 0]). *)

val activation_threshold :
  Msts_platform.Chain.t -> k:int -> max_n:int -> int option
(** Least [n ≤ max_n] whose optimal schedule gives processor [k] work, if
    any.  A deep processor activates once nearer ones saturate; the
    threshold marks the crossover the layered-network example studies. *)
