(* Linear probing over a power-of-two table; [-1] marks an empty slot
   (samples are clamped to be non-negative).  The slot index is the top
   bits of a Fibonacci hash, so values sharing their low bits (multiples
   of a common latency) still spread over the table. *)
type t = {
  mutable keys : int array;
  mutable counts : int array;
  mutable size : int;
  mutable shift : int; (* 63 - log2 (capacity) *)
}

let create () = { keys = [||]; counts = [||]; size = 0; shift = 63 }

let slot t v =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref ((v * 0x9E3779B97F4A7C1) lsr t.shift) in
  while
    let k = Array.unsafe_get keys !i in
    k <> v && k >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let resize t bits =
  let keys = t.keys and counts = t.counts in
  t.keys <- Array.make (1 lsl bits) (-1);
  t.counts <- Array.make (1 lsl bits) 0;
  t.shift <- 63 - bits;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = slot t k in
        t.keys.(j) <- k;
        t.counts.(j) <- counts.(i)
      end)
    keys

let add t v =
  let v = if v < 0 then 0 else v in
  if 2 * (t.size + 1) > Array.length t.keys then resize t (max 4 (64 - t.shift));
  let i = slot t v in
  if Array.unsafe_get t.keys i = v then
    Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1)
  else begin
    Array.unsafe_set t.keys i v;
    Array.unsafe_set t.counts i 1;
    t.size <- t.size + 1
  end

let emit t name =
  if t.size > 0 then begin
    let values = Array.make t.size 0 and n = ref 0 in
    Array.iter
      (fun k ->
        if k >= 0 then begin
          values.(!n) <- k;
          incr n
        end)
      t.keys;
    Array.sort Int.compare values;
    let counts = Array.map (fun v -> t.counts.(slot t v)) values in
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.size <- 0;
    Msts_obs.Obs.samples name ~values ~counts
  end
