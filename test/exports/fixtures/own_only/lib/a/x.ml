let f = 1
let g n = n + f
