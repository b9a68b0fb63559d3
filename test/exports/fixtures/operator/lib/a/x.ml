let ( +! ) a b = a + b
let f = 1 +! 0
