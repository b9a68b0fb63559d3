val f : int
val g : int -> int
