val f : int
val ( +! ) : int -> int -> int
