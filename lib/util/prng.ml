type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* Rejection sampling over the top 62 bits keeps the draw unbiased while
   staying inside OCaml's native [int] range. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
    let v = r mod bound in
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let choice t a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
