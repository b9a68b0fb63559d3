(** Spider platforms (paper §6, Figure 5).

    A spider is a tree in which only the master (the root) may have several
    children: it is a bundle of chains ("legs") sharing the master.  A
    processor is addressed by its leg index and its depth within that leg.
    The master sends at most one task at a time over all legs combined
    (one-port), while within each leg the chain rules apply. *)

type t

type address = { leg : int; depth : int }
(** [leg] in [1..legs t], [depth] in [1..Chain.length (leg_chain t leg)]. *)

val make : Chain.t array -> t
(** @raise Invalid_argument on an empty array. *)

val of_legs : Chain.t list -> t

val legs : t -> int
(** Number of legs (the master's arity). *)

val leg_chain : t -> int -> Chain.t
(** [leg_chain t l], [1 <= l <= legs t]. *)

val processor_count : t -> int
(** Total number of processors across all legs. *)

val addresses : t -> address list
(** Every processor address, legs in order, shallow first. *)

val work : t -> address -> int

val scale : ?latency_factor:int -> ?work_factor:int -> t -> address -> t
(** A copy in which one processor's link latency and/or work time are
    multiplied by the given factors (both default 1).
    @raise Invalid_argument on a bad address or a factor [< 1]. *)

val restrict : t -> depths:int array -> (t * int array) option
(** Residual-platform surgery: [restrict t ~depths] keeps the first
    [depths.(l-1)] processors of each leg [l] (0 drops the leg entirely —
    under store-and-forward, a crash at depth [d] makes everything at depth
    [>= d] unreachable).  Returns [None] when no processor survives;
    otherwise the surviving spider plus the map from its leg indices
    (position [i] holds the original leg of residual leg [i+1]).
    @raise Invalid_argument if [depths] has the wrong length or an entry is
    outside [0..leg length]. *)

val of_chain : Chain.t -> t
(** A chain is the spider with a single leg. *)

val of_fork : Fork.t -> t
(** A fork is the spider whose legs all have depth 1. *)

val equal : t -> t -> bool

val to_string : t -> string
