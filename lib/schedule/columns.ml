type t = {
  legs : int array;
  starts : int array;
  offsets : int array;
  emissions : int array;
}

let make ~who ~legs ~starts ~offsets ~emissions =
  let n = Array.length starts in
  if (Array.length legs <> n && Array.length legs <> 0) || Array.length offsets <> n + 1 then
    invalid_arg
      (Printf.sprintf "%s: %d legs, %d starts and %d offsets (want n or 0, n and n + 1)"
         who (Array.length legs) n (Array.length offsets));
  if offsets.(0) <> 0 || offsets.(n) <> Array.length emissions then
    invalid_arg
      (Printf.sprintf "%s: offsets run from %d to %d over %d emissions" who offsets.(0)
         offsets.(n) (Array.length emissions));
  { legs; starts; offsets; emissions }

let on_leg_one c = { c with legs = [||] }

let[@inline] length c = Array.length c.starts

(* a length test, not [= [||]]: polymorphic equality is a C call *)
let[@inline] all_on_leg_one c = Array.length c.legs = 0

let[@inline] leg c i = if all_on_leg_one c then 1 else c.legs.(i)

let[@inline] depth c i = c.offsets.(i + 1) - c.offsets.(i)

let[@inline never] no_hop ~who c i k =
  invalid_arg (Printf.sprintf "%s: hop %d of task %d outside 1..%d" who k (i + 1) (depth c i))

let[@inline] emission ~who c i k =
  if k < 1 || k > depth c i then no_hop ~who c i k;
  c.emissions.(c.offsets.(i) + k - 1)

let comms c i = Array.sub c.emissions c.offsets.(i) (depth c i)

let shift c ~delta =
  {
    c with
    starts = Array.map (( + ) delta) c.starts;
    emissions = Array.map (( + ) delta) c.emissions;
  }

let filter c ~keep =
  let n = length c in
  let kept = ref 0 and words = ref 0 in
  for i = 0 to n - 1 do
    if keep (i + 1) then begin
      incr kept;
      words := !words + depth c i
    end
  done;
  let legs = if all_on_leg_one c then [||] else Array.make !kept 0 in
  let starts = Array.make !kept 0 and offsets = Array.make (!kept + 1) 0 in
  let emissions = Array.make !words 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep (i + 1) then begin
      if not (all_on_leg_one c) then legs.(!j) <- c.legs.(i);
      starts.(!j) <- c.starts.(i);
      Array.blit c.emissions c.offsets.(i) emissions offsets.(!j) (depth c i);
      offsets.(!j + 1) <- offsets.(!j) + depth c i;
      incr j
    end
  done;
  { legs; starts; offsets; emissions }

let append a b =
  let na = length a and base = Array.length a.emissions in
  let full c = if all_on_leg_one c then Array.make (length c) 1 else c.legs in
  {
    legs = (if all_on_leg_one a && all_on_leg_one b then [||] else Array.append (full a) (full b));
    starts = Array.append a.starts b.starts;
    offsets =
      Array.init
        (na + length b + 1)
        (fun i -> if i <= na then a.offsets.(i) else base + b.offsets.(i - na));
    emissions = Array.append a.emissions b.emissions;
  }

let equal a b =
  a.legs = b.legs && a.starts = b.starts && a.offsets = b.offsets
  && a.emissions = b.emissions
