let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let sorted xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let ys = sorted xs in
    if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0
  end

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let ys = sorted xs in
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (ys.(lo) *. (1.0 -. frac)) +. (ys.(hi) *. frac)
  end

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

