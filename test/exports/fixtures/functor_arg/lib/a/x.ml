type t = int

let equal = Int.equal
let hash = Hashtbl.hash
