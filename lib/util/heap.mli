(** Array-backed binary min-heap.

    Used as the event queue of the discrete-event simulator and by the
    list-scheduling baselines.  Elements are ordered by a user-supplied
    comparison fixed at creation time.  All operations are the classic
    O(log n) sift operations; [create] is O(1). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap with the given total order ([cmp a b < 0] means [a] has
    higher priority). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val drain : 'a t -> 'a list
(** Pop everything, smallest first. *)
