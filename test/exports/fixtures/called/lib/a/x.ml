let f = 1
let g n = n + f
let ( +! ) a b = a + b
