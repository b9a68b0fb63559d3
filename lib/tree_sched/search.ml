module Tree = Msts_platform.Tree

let search flat n =
  let count = Flat.node_count flat in
  let best = ref max_int in
  let best_seq = ref [||] in
  let seq = Array.make (max n 1) 1 and hops = Asap.hops flat in
  let rec explore st depth makespan =
    if makespan < !best then begin
      if depth = n then begin
        best := makespan;
        best_seq := Array.sub seq 0 n
      end
      else
        for dest = 1 to count do
          let st' = Asap.copy st in
          let start = Asap.push st' ~dest ~emissions:hops ~pos:0 in
          seq.(depth) <- dest;
          explore st' (depth + 1)
            (max makespan (start + (Flat.info flat dest).Flat.work))
        done
    end
  in
  if n = 0 then (0, [||])
  else begin
    explore (Asap.start flat) 0 0;
    (!best, !best_seq)
  end

let best_fifo_makespan tree n =
  if n < 0 then invalid_arg "Search: negative task count";
  fst (search (Flat.of_tree tree) n)

let best_fifo_schedule tree n =
  if n < 0 then invalid_arg "Search: negative task count";
  let flat = Flat.of_tree tree in
  let _, seq = search flat n in
  Asap.of_sequence flat seq

let lower_bound tree n =
  if n < 0 then invalid_arg "Search.lower_bound: negative task count";
  if n = 0 then 0
  else begin
    let flat = Flat.of_tree tree in
    (* master-port argument: every task leaves through the master's port *)
    let min_first_hop =
      List.fold_left
        (fun acc id -> min acc (Flat.info flat id).Flat.latency)
        max_int
        (Flat.children flat 0)
    in
    let best_completion =
      List.fold_left
        (fun acc info ->
          min acc (Flat.path_latency flat info.Flat.id + info.Flat.work))
        max_int (Flat.nodes flat)
    in
    let port = ((n - 1) * min_first_hop) + best_completion in
    (* capacity argument: node v completes at most
       floor((M - path_latency)/w) tasks by M *)
    let capacity_at m =
      List.fold_left
        (fun acc info ->
          let window = m - Flat.path_latency flat info.Flat.id in
          if window > 0 then acc + (window / info.Flat.work) else acc)
        0 (Flat.nodes flat)
    in
    let hi =
      (* everything on the first master child *)
      let first = Flat.info flat (List.hd (Flat.children flat 0)) in
      first.Flat.latency
      + ((n - 1) * max first.Flat.latency first.Flat.work)
      + first.Flat.work
    in
    let capacity =
      match
        Msts_util.Intx.binary_search_least ~lo:0 ~hi (fun m -> capacity_at m >= n)
      with
      | Some m -> m
      | None -> hi
    in
    max port capacity
  end
