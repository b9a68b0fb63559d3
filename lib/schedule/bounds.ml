module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider

let best_single_completion chain =
  let p = Chain.length chain in
  let best = ref max_int in
  for k = 1 to p do
    best := min !best (Chain.path_latency chain k + Chain.work chain k)
  done;
  !best

let capacity_at chain m =
  let p = Chain.length chain in
  let total = ref 0 in
  for k = 1 to p do
    let window = m - Chain.path_latency chain k in
    if window > 0 then total := !total + (window / Chain.work chain k)
  done;
  !total

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

let spider_fluid_bound spider n =
  if n < 0 then invalid_arg "Bounds.spider_fluid_bound: negative n";
  if n = 0 then 0.0 else float_of_int n /. Steady_state.spider_throughput spider

let spider_combined_bound spider n =
  let fluid = int_of_float (ceil (spider_fluid_bound spider n -. 1e-9)) in
  max (spider_port_bound spider n) (max (spider_capacity_bound spider n) fluid)
