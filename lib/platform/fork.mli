(** Fork (star) platforms (paper §6).

    A fork is a master directly connected to [m] slaves; slave [j] is
    reached through a link of latency [c j] and processes one task in
    [w j] time units.  Forks appear twice in the reproduction: as the
    substrate of the Beaumont et al. algorithm recalled in §6, and as the
    target of the chain→fork transformation of §7 (where slaves are
    single-task virtual nodes). *)

type t

val make : (int * int) array -> t
(** [make slaves] with [slaves.(j-1) = (c_j, w_j)].
    @raise Invalid_argument on an empty array or non-positive values. *)

val of_pairs : (int * int) list -> t

val slave_count : t -> int

val latency : t -> int -> int
(** [latency t j], [1 <= j <= slave_count t]. *)

val work : t -> int -> int
(** [work t j], [1 <= j <= slave_count t]. *)

val to_pairs : t -> (int * int) list

val as_chains : t -> Chain.t array
(** Each slave viewed as a length-1 chain — a fork is the spider whose legs
    all have depth one. *)
