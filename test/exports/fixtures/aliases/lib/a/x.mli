val f : int
val g : int -> int

module Sub : sig
  val h : int
  val k : int
end
