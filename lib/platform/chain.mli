(** Chain platforms (paper §2, Figure 1).

    A chain of [p] heterogeneous processors hangs off the master: processor
    [k] (1-indexed, processor 1 closest to the master) is reached through a
    link of latency [c k] and executes one task in [w k] time units.  Every
    node follows the one-port model: one incoming and one outgoing transfer
    at a time, overlapping with computation.

    Latencies and work times are strictly positive integers; times are exact
    (the paper types task start dates in ℕ). *)

type t
(** Immutable chain description. *)

val make : c:int array -> w:int array -> t
(** [make ~c ~w] where [c.(k-1)] is the latency of the link into processor
    [k] and [w.(k-1)] its per-task work time.
    @raise Invalid_argument if the arrays differ in length, are empty, or
    contain non-positive values. *)

val of_pairs : (int * int) list -> t
(** [of_pairs [(c1,w1); ...]] lists processors from the master outwards. *)

val length : t -> int
(** Number of processors [p]. *)

val latency : t -> int -> int
(** [latency t k] is [c_k], [1 <= k <= p]. @raise Invalid_argument outside
    that range. *)

val work : t -> int -> int
(** [work t k] is [w_k], [1 <= k <= p]. @raise Invalid_argument outside
    that range. *)

val path_latency : t -> int -> int
(** [path_latency t k] = [c_1 + ... + c_k]: earliest a task can reach
    processor [k] counting from its first emission. *)

val drop_first : t -> t
(** The sub-chain [(c_i, w_i), i in 2..p] used throughout the optimality
    proof (Lemma 2).  @raise Invalid_argument on a single-processor chain. *)

val prefix : t -> int -> t
(** [prefix t k] keeps processors [1..k]. @raise Invalid_argument unless
    [1 <= k <= p]. *)

val to_pairs : t -> (int * int) list
(** Inverse of [of_pairs]. *)

val scale : ?latency_factor:int -> ?work_factor:int -> t -> at:int -> t
(** A copy in which processor [at]'s link latency and/or work time are
    multiplied by the given factors (both default 1).  The degradation
    primitive behind the fault model.  @raise Invalid_argument if [at] is
    out of range or a factor is [< 1]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders like ["chain[(c=2,w=3); (c=3,w=5)]"]. *)

val to_string : t -> string

val master_only_makespan : t -> int -> int
(** [master_only_makespan t n] is the horizon T∞ of §3: the makespan of the
    naive schedule placing all [n] tasks on processor 1,
    [c_1 + (n-1)·max(w_1,c_1) + w_1]. Returns 0 for [n = 0]. *)
