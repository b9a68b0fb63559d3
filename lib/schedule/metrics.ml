module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider

type node = {
  address : Spider.address;
  tasks : int;
  link_busy : int;
  compute : int;
  starved : int;
  idle : int;
  waiting : int;
  max_wait : int;
  max_buffered : int;
}

type t = { tasks : int; makespan : int; port_busy : int; nodes : node array }

let fraction m busy =
  if m.makespan <= 0 then 0.0 else float_of_int busy /. float_of_int m.makespan

(* The tasks are bucketed by node (a counting sort over node numbers);
   each node's starts and arrivals are sorted in place within its bucket.
   In start order every gap before an execution is starvation and the
   tail after the last completion is idleness; merging the sorted
   arrivals and starts, a start at an arrival's date leaves the buffer
   first, gives the high-water mark. *)
let of_spider_schedule s =
  let spider = Spider_schedule.spider s in
  let n = Spider_schedule.task_count s and makespan = Spider_schedule.makespan s in
  let legs = Spider.legs spider in
  (* leg l's depth k is node first.(l-1) + k - 1 *)
  let first = Array.make (legs + 1) 0 in
  for l = 1 to legs do
    first.(l) <- first.(l - 1) + Chain.length (Spider.leg_chain spider l)
  done;
  let nodes = first.(legs) in
  let node (a : Spider.address) = first.(a.leg - 1) + a.depth - 1 in
  let task_node i = first.(Spider_schedule.leg s i - 1) + Spider_schedule.depth s i - 1 in
  (* node v's tasks fill slots off.(v) .. off.(v+1) - 1 *)
  let off = Array.make (nodes + 1) 0 in
  for i = 1 to n do
    let v = task_node i in
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 1 to nodes do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let fill = Array.sub off 0 nodes in
  let starts = Array.make n 0 and arrivals = Array.make n 0 in
  let waiting = Array.make nodes 0 and max_wait = Array.make nodes 0 in
  for i = 1 to n do
    let v = task_node i and depth = Spider_schedule.depth s i in
    let start = Spider_schedule.start s i in
    let arrival =
      Spider_schedule.emission s i depth
      + Chain.latency (Spider.leg_chain spider (Spider_schedule.leg s i)) depth
    in
    starts.(fill.(v)) <- start;
    arrivals.(fill.(v)) <- arrival;
    fill.(v) <- fill.(v) + 1;
    waiting.(v) <- waiting.(v) + start - arrival;
    if start - arrival > max_wait.(v) then max_wait.(v) <- start - arrival
  done;
  (* the link into depth k carries every task executed at depth >= k *)
  let crossing = Array.make nodes 0 in
  for l = 1 to legs do
    for v = first.(l) - 1 downto first.(l - 1) do
      crossing.(v) <- (off.(v + 1) - off.(v)) + if v + 1 < first.(l) then crossing.(v + 1) else 0
    done
  done;
  let measure ({ Spider.leg; depth } as address) =
    let v = node address and chain = Spider.leg_chain spider leg in
    let lo = off.(v) and hi = off.(v + 1) and w = Chain.work chain depth in
    Msts_util.Intx.sort_sub starts ~pos:lo ~len:(hi - lo);
    Msts_util.Intx.sort_sub arrivals ~pos:lo ~len:(hi - lo);
    let cursor = ref 0 and starved = ref 0 in
    for j = lo to hi - 1 do
      starved := !starved + max 0 (starts.(j) - !cursor);
      cursor := starts.(j) + w
    done;
    let buffered = ref 0 and high = ref 0 and j = ref lo in
    for i = lo to hi - 1 do
      while !j < hi && starts.(!j) <= arrivals.(i) do
        decr buffered;
        incr j
      done;
      incr buffered;
      if !buffered > !high then high := !buffered
    done;
    {
      address;
      tasks = hi - lo;
      link_busy = crossing.(v) * Chain.latency chain depth;
      compute = (hi - lo) * w;
      starved = !starved;
      idle = max 0 (makespan - !cursor);
      waiting = waiting.(v);
      max_wait = max_wait.(v);
      max_buffered = !high;
    }
  in
  let port_busy = ref 0 in
  for l = 1 to legs do
    port_busy :=
      !port_busy + (crossing.(first.(l - 1)) * Chain.latency (Spider.leg_chain spider l) 1)
  done;
  {
    tasks = n;
    makespan;
    port_busy = !port_busy;
    nodes = Array.of_list (List.map measure (Spider.addresses spider));
  }

let of_plan plan = of_spider_schedule (Plan.to_spider plan)

let total_waiting m = Array.fold_left (fun acc (v : node) -> acc + v.waiting) 0 m.nodes
let max_waiting m = Array.fold_left (fun acc (v : node) -> max acc v.max_wait) 0 m.nodes

let leg_tasks m l =
  Array.fold_left
    (fun acc (v : node) -> if v.address.leg = l then acc + v.tasks else acc)
    0 m.nodes

let pct m busy = 100.0 *. fraction m busy

let node_line buf m ~name k (v : node) =
  Printf.bprintf buf
    "  %s%-2d  tasks %-3d  link busy %5.1f%%  cpu busy %5.1f%%  max buffered %d\n" name
    k v.tasks (pct m v.link_busy) (pct m v.compute) v.max_buffered

let summary plan =
  let m = of_plan plan in
  let buf = Buffer.create 256 in
  (match plan with
  | Plan.Chain _ ->
      Printf.bprintf buf "tasks: %d, makespan: %d\n" m.tasks m.makespan;
      Printf.bprintf buf "total waiting: %d, max single wait: %d\n" (total_waiting m)
        (max_waiting m);
      Array.iter (fun v -> node_line buf m ~name:"P" v.address.Spider.depth v) m.nodes
  | Plan.Spider _ ->
      Printf.bprintf buf "tasks: %d, makespan: %d, master port busy %.1f%%\n" m.tasks
        m.makespan (pct m m.port_busy);
      Array.iter
        (fun (v : node) ->
          let { Spider.leg; depth } = v.address in
          if depth = 1 then Printf.bprintf buf "leg %d: %d tasks\n" leg (leg_tasks m leg);
          node_line buf m ~name:"depth " depth v)
        m.nodes);
  Buffer.contents buf
