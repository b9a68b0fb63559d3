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

let sort_prefix (a : int array) n =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done
