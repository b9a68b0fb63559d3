val f : int
val g : int -> int
val ( +! ) : int -> int -> int
