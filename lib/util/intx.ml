let ceil_div a b =
  if b <= 0 then invalid_arg "Intx.ceil_div: non-positive divisor";
  if a < 0 then invalid_arg "Intx.ceil_div: negative dividend";
  (a + b - 1) / b

let argmin a =
  if Array.length a = 0 then invalid_arg "Intx.argmin: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(!best) then best := i
  done;
  !best

let range lo hi =
  let rec loop i acc = if i < lo then acc else loop (i - 1) (i :: acc) in
  loop hi []

let binary_search_least ~lo ~hi p =
  if lo > hi then None
  else if not (p hi) then None
  else begin
    (* invariant: p holds at [hi'], does not hold below [lo'-1]. *)
    let rec loop lo' hi' =
      if lo' >= hi' then Some hi'
      else begin
        let mid = lo' + ((hi' - lo') / 2) in
        if p mid then loop lo' mid else loop (mid + 1) hi'
      end
    in
    loop lo hi
  end

(* Restores the max-heap order of [a.(pos ..)] below node [i] of a heap
   of [n] nodes; top level so that no call allocates a closure. *)
let rec sift (a : int array) pos i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(pos + l + 1) > a.(pos + l) then l + 1 else l in
    if a.(pos + c) > a.(pos + i) then begin
      let x = a.(pos + i) in
      a.(pos + i) <- a.(pos + c);
      a.(pos + c) <- x;
      sift a pos c n
    end
  end

let sort_sub (a : int array) ~pos ~len =
  let sorted = ref true in
  for i = pos + 1 to pos + len - 1 do
    if a.(i) < a.(i - 1) then sorted := false
  done;
  if not !sorted then begin
    for i = (len / 2) - 1 downto 0 do
      sift a pos i len
    done;
    for last = len - 1 downto 1 do
      let x = a.(pos) in
      a.(pos) <- a.(pos + last);
      a.(pos + last) <- x;
      sift a pos 0 last
    done
  end
