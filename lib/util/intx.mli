(** Integer helpers shared across the library.

    Schedule times are exact integers (the paper types [T : [1;n] -> N]), so
    a handful of total integer operations recur everywhere. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is ⌈a/b⌉ for [a >= 0], [b > 0]. *)

val argmin : int array -> int
(** Index of the first minimum. @raise Invalid_argument on empty input. *)

val range : int -> int -> int list
(** [range lo hi] is [\[lo; lo+1; ...; hi\]]; empty if [hi < lo].  Mirrors
    the paper's interval notation ⟦lo;hi⟧. *)

val binary_search_least : lo:int -> hi:int -> (int -> bool) -> int option
(** [binary_search_least ~lo ~hi p] is the least [x] in [\[lo,hi\]] with
    [p x], assuming [p] is monotone (false … false true … true); [None] if
    [p] holds nowhere in the range. *)

val sort_sub : int array -> pos:int -> len:int -> unit
(** [sort_sub a ~pos ~len] sorts [a.(pos .. pos+len-1)] ascending in place, by
    heapsort: O(len log len) and nothing allocated; an ascending range
    costs one scan.  Callers that need a tie order pack it into their
    keys. *)
