module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider

let best_single_completion chain =
  let p = Chain.length chain in
  let best = ref max_int in
  for k = 1 to p do
    best := min !best (Chain.path_latency chain k + Chain.work chain k)
  done;
  !best

let port_bound chain n =
  if n < 0 then invalid_arg "Bounds.port_bound: negative n";
  if n = 0 then 0
  else ((n - 1) * Chain.latency chain 1) + best_single_completion chain

let capacity_at chain m =
  let p = Chain.length chain in
  let total = ref 0 in
  for k = 1 to p do
    let window = m - Chain.path_latency chain k in
    if window > 0 then total := !total + (window / Chain.work chain k)
  done;
  !total

let capacity_bound chain n =
  if n < 0 then invalid_arg "Bounds.capacity_bound: negative n";
  if n = 0 then 0
  else begin
    let hi = Chain.master_only_makespan chain n in
    match
      Msts_util.Intx.binary_search_least ~lo:0 ~hi (fun m ->
          capacity_at chain m >= n)
    with
    | Some m -> m
    | None -> hi
  end

let fluid_load chain m =
  let p = Chain.length chain in
  let rec g j =
    if j > p then 0.0
    else
      min
        (m /. float_of_int (Chain.latency chain j))
        ((m /. float_of_int (Chain.work chain j)) +. g (j + 1))
  in
  g 1

let fluid_bound chain n =
  if n < 0 then invalid_arg "Bounds.fluid_bound: negative n";
  if n = 0 then 0.0
  else begin
    let target = float_of_int n in
    let lo = ref 0.0 and hi = ref (float_of_int (Chain.master_only_makespan chain n)) in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if fluid_load chain mid >= target then hi := mid else lo := mid
    done;
    !hi
  end

let combined_bound chain n =
  let fluid = int_of_float (ceil (fluid_bound chain n -. 1e-9)) in
  max (port_bound chain n) (max (capacity_bound chain n) fluid)

let spider_port_bound spider n =
  if n < 0 then invalid_arg "Bounds.spider_port_bound: negative n";
  if n = 0 then 0
  else begin
    let min_c1 = ref max_int and best_completion = ref max_int in
    for l = 1 to Spider.legs spider do
      let chain = Spider.leg_chain spider l in
      min_c1 := min !min_c1 (Chain.latency chain 1);
      best_completion := min !best_completion (best_single_completion chain)
    done;
    ((n - 1) * !min_c1) + !best_completion
  end

let spider_capacity_at spider m =
  let total = ref 0 in
  for l = 1 to Spider.legs spider do
    total := !total + capacity_at (Spider.leg_chain spider l) m
  done;
  !total

let spider_capacity_bound spider n =
  if n < 0 then invalid_arg "Bounds.spider_capacity_bound: negative n";
  if n = 0 then 0
  else begin
    let hi =
      Chain.master_only_makespan (Spider.leg_chain spider 1) n
    in
    match
      Msts_util.Intx.binary_search_least ~lo:0 ~hi (fun m ->
          spider_capacity_at spider m >= n)
    with
    | Some m -> m
    | None -> hi
  end

(* One leg of the spider fluid relaxation: its first-hop cost and every
   hop's latency and work, as floats. *)
type fluid_leg = { c1 : float; latency : float array; work : float array }

(* The legs by ascending first-hop cost, ties in leg order. *)
let fluid_legs spider =
  let legs =
    Array.init (Spider.legs spider) (fun i ->
        let chain = Spider.leg_chain spider (i + 1) in
        let hop f =
          Array.init (Chain.length chain) (fun j ->
              float_of_int (f chain (j + 1)))
        in
        {
          c1 = float_of_int (Chain.latency chain 1);
          latency = hop Chain.latency;
          work = hop Chain.work;
        })
  in
  Array.stable_sort (fun a b -> Float.compare a.c1 b.c1) legs;
  legs

(* [fluid_load] of one leg, innermost hop first: the same operations as
   the recursion, so the same float. *)
let leg_fluid_load leg m =
  let g = ref 0.0 in
  for j = Array.length leg.latency - 1 downto 0 do
    let direct = m /. leg.latency.(j) and via = (m /. leg.work.(j)) +. !g in
    g := if direct <= via then direct else via
  done;
  !g

(* max load deliverable through the master's port within horizon [m]:
   fractional knapsack by ascending first-hop cost, each leg capped by its
   own fluid capacity *)
let spider_fluid_load legs m =
  let total = ref 0.0 and port_left = ref m in
  for l = 0 to Array.length legs - 1 do
    let leg = legs.(l) in
    let cap = leg_fluid_load leg m and share = !port_left /. leg.c1 in
    let load = if cap <= share then cap else share in
    total := !total +. load;
    port_left := !port_left -. (load *. leg.c1)
  done;
  !total

let spider_fluid_bound spider n =
  if n < 0 then invalid_arg "Bounds.spider_fluid_bound: negative n";
  if n = 0 then 0.0
  else begin
    let legs = fluid_legs spider in
    let target = float_of_int n in
    let lo = ref 0.0
    and hi =
      ref
        (float_of_int
           (Chain.master_only_makespan (Spider.leg_chain spider 1) n))
    in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if spider_fluid_load legs mid >= target then hi := mid else lo := mid
    done;
    !hi
  end

let spider_combined_bound spider n =
  let fluid = int_of_float (ceil (spider_fluid_bound spider n -. 1e-9)) in
  max (spider_port_bound spider n) (max (spider_capacity_bound spider n) fluid)
