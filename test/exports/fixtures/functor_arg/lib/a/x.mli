type t = int

val equal : t -> t -> bool
val hash : t -> int
