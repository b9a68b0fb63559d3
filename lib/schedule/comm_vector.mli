(** Communication vectors and their total order (paper Definitions 1 & 3).

    The communication vector of a task executed on processor [k] is
    [(C_1, ..., C_k)]: [C_j] is the time at which the task's transfer over
    link [j] (from processor [j-1] to processor [j]) starts.

    Definition 3 orders two vectors [A] and [B] as follows: [A ≺ B] iff
    either the first differing coordinate is smaller in [A], or [A] extends
    [B] ([B] is a strict prefix of [A]).  Intuitively the {e greatest}
    vector starts its first communication as late as possible, breaks ties
    on later links, and — all common coordinates equal — prefers the
    processor closest to the master.  The chain algorithm always picks the
    greatest candidate vector. *)

type t = int array
(** Index [j-1] holds [C_j].  Vectors are at least of length 1. *)

val precedes : t -> t -> bool
(** [precedes a b] iff [a ≺ b] strictly (Definition 3).  A strict total
    order on vectors of any lengths. *)

val shift : int -> t -> t
(** [shift d v] subtracts [d] from every coordinate (the paper's final
    normalisation step applies [shift (C¹_1)]). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
