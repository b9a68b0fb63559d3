module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Schedule = Msts_schedule.Schedule
module Spider_schedule = Msts_schedule.Spider_schedule
module Plan = Msts_schedule.Plan
module Json = Msts_obs.Json

type resource = { busy : int; fraction : float }

type processor = {
  tasks : int;
  compute : int;
  starved : int;
  idle : int;
  fraction : float;
}

type node = { address : Spider.address; link : resource; proc : processor }

type t = {
  tasks : int;
  makespan : int;
  master_port : resource;
  nodes : node list; (* address order: leg-major, shallow first *)
}

let fraction_of ~makespan busy =
  if makespan <= 0 then 0.0 else float_of_int busy /. float_of_int makespan

(* Compute/starved/idle partition of [0, makespan) for one processor from
   its execution starts, sorted, each lasting [w].  The intervals are
   disjoint (one task at a time); in start order every gap before an
   execution is time the processor sat waiting for input ("starved"), and
   the tail after its last completion is plain idleness.  The three parts
   sum to the makespan exactly, by construction. *)
let proc_usage ~makespan ~w starts =
  let cursor = ref 0 and starved = ref 0 in
  Array.iter
    (fun start ->
      starved := !starved + max 0 (start - !cursor);
      cursor := start + w)
    starts;
  let compute = w * Array.length starts in
  {
    tasks = Array.length starts;
    compute;
    starved = !starved;
    idle = max 0 (makespan - !cursor);
    fraction = fraction_of ~makespan compute;
  }

(* One pass over the entries: per node the tasks crossing its link and
   the starts of those executing there, nodes numbered in address order
   (leg-major, shallow first). *)
let of_spider_schedule sched =
  let spider = Spider_schedule.spider sched in
  let makespan = Spider_schedule.makespan sched in
  let legs = Spider.legs spider in
  let first = Array.make (legs + 1) 0 in
  for l = 1 to legs do
    first.(l) <- first.(l - 1) + Chain.length (Spider.leg_chain spider l)
  done;
  let node { Spider.leg; depth } = first.(leg - 1) + depth - 1 in
  let crossing = Array.make first.(legs) 0 and executing = Array.make first.(legs) 0 in
  let port_busy = ref 0 in
  let n = Spider_schedule.task_count sched in
  for i = 1 to n do
    let e = Spider_schedule.entry sched i in
    let v = node e.address in
    port_busy := !port_busy + Chain.latency (Spider.leg_chain spider e.address.leg) 1;
    executing.(v) <- executing.(v) + 1;
    for u = v - e.address.depth + 1 to v do
      crossing.(u) <- crossing.(u) + 1
    done
  done;
  let starts = Array.map (fun k -> Array.make k 0) executing in
  let filled = Array.make first.(legs) 0 in
  for i = 1 to n do
    let e = Spider_schedule.entry sched i in
    let v = node e.address in
    starts.(v).(filled.(v)) <- e.start;
    filled.(v) <- filled.(v) + 1
  done;
  let nodes =
    List.map
      (fun ({ Spider.leg; depth } as address) ->
        let v = node address and chain = Spider.leg_chain spider leg in
        let link_busy = crossing.(v) * Chain.latency chain depth in
        Array.sort Int.compare starts.(v);
        {
          address;
          link = { busy = link_busy; fraction = fraction_of ~makespan link_busy };
          proc = proc_usage ~makespan ~w:(Chain.work chain depth) starts.(v);
        })
      (Spider.addresses spider)
  in
  {
    tasks = n;
    makespan;
    master_port = { busy = !port_busy; fraction = fraction_of ~makespan !port_busy };
    nodes;
  }

let of_plan = function
  | Plan.Spider sched -> of_spider_schedule sched
  | Plan.Chain sched -> of_spider_schedule (Spider_schedule.of_chain_schedule sched)

let of_execution (report : Netsim.execution_report) =
  of_spider_schedule report.Netsim.realized

let pct x = 100.0 *. x

let summary t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "tasks: %d, makespan: %d\n" t.tasks t.makespan;
  Printf.bprintf buf "master port: busy %d/%d (%5.1f%%)\n" t.master_port.busy
    t.makespan (pct t.master_port.fraction);
  let current_leg = ref 0 in
  List.iter
    (fun { address = { Spider.leg; depth }; link; proc } ->
      if leg <> !current_leg then begin
        current_leg := leg;
        Printf.bprintf buf "leg %d:\n" leg
      end;
      Printf.bprintf buf
        "  depth %-2d  link busy %-4d (%5.1f%%)  compute %-4d (%5.1f%%)  \
         starved %-4d idle %-4d  tasks %d\n"
        depth link.busy (pct link.fraction) proc.compute (pct proc.fraction)
        proc.starved proc.idle proc.tasks)
    t.nodes;
  Buffer.contents buf

let json_pct x = Json.Float (Float.round (1000.0 *. x) /. 10.0)

let to_json t =
  let legs =
    List.sort_uniq compare
      (List.map (fun n -> n.address.Spider.leg) t.nodes)
  in
  let leg_json l =
    let nodes =
      List.filter_map
        (fun { address = { Spider.leg; depth }; link; proc } ->
          if leg <> l then None
          else
            Some
              (Json.Obj
                 [
                   ("depth", Json.Int depth);
                   ("link_busy", Json.Int link.busy);
                   ("link_busy_pct", json_pct link.fraction);
                   ("tasks", Json.Int proc.tasks);
                   ("compute", Json.Int proc.compute);
                   ("starved", Json.Int proc.starved);
                   ("idle", Json.Int proc.idle);
                   ("cpu_busy_pct", json_pct proc.fraction);
                 ]))
        t.nodes
    in
    Json.Obj [ ("leg", Json.Int l); ("nodes", Json.List nodes) ]
  in
  Json.Obj
    [
      ("tasks", Json.Int t.tasks);
      ("makespan", Json.Int t.makespan);
      ( "master_port",
        Json.Obj
          [
            ("busy", Json.Int t.master_port.busy);
            ("busy_pct", json_pct t.master_port.fraction);
          ] );
      ("legs", Json.List (List.map leg_json legs));
    ]
