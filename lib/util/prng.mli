(** Deterministic, splittable pseudo-random number generator.

    All randomness in the library flows through this module so that every
    experiment, test and benchmark is reproducible from a single seed.  The
    implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), which is
    fast and has a 64-bit state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds give
    equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0..n-1]. *)
