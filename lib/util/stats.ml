let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Msts.Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
    (xs.(0), xs.(0)) xs

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Array.fold_left (fun a x -> a +. log x) 0.0 xs in
    exp (acc /. float_of_int n)
  end

