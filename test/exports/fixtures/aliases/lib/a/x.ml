let f = 1
let g n = n + f

module Sub = struct
  let h = 2
  let k = 3
end
