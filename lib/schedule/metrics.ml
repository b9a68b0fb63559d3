module Chain = Msts_platform.Chain

type task_timing = {
  task : int;
  arrival : int;  (* end of the last transfer: C_P + c_P *)
  start : int;
  waiting : int;  (* start - arrival, >= 0 in a feasible schedule *)
}

let task_timings t =
  let chain = Schedule.chain t in
  List.map
    (fun task ->
      let e = Schedule.entry t task in
      let arrival = e.Schedule.comms.(e.proc - 1) + Chain.latency chain e.proc in
      { task; arrival; start = e.start; waiting = e.start - arrival })
    (Msts_util.Intx.range 1 (Schedule.task_count t))

let total_waiting t =
  List.fold_left (fun acc timing -> acc + timing.waiting) 0 (task_timings t)

let max_waiting t =
  List.fold_left (fun acc timing -> max acc timing.waiting) 0 (task_timings t)

let buffer_high_water t k =
  let timings =
    List.filter
      (fun timing -> (Schedule.entry t timing.task).Schedule.proc = k)
      (task_timings t)
  in
  (* +1 when a task lands in the buffer, -1 when it starts executing; on a
     tie the departure is processed first. *)
  let events =
    List.sort compare
      (List.concat_map
         (fun timing -> [ (timing.arrival, 1, 1); (timing.start, 0, -1) ])
         timings)
  in
  let high = ref 0 and current = ref 0 in
  List.iter
    (fun (_, _, delta) ->
      current := !current + delta;
      if !current > !high then high := !current)
    events;
  !high

let utilisation intervals ~makespan =
  Intervals.utilisation intervals ~horizon:makespan

let link_utilisation t k =
  utilisation (Schedule.link_intervals t k) ~makespan:(Schedule.makespan t)

let proc_utilisation t k =
  utilisation (Schedule.proc_intervals t k) ~makespan:(Schedule.makespan t)

let summary t =
  let chain = Schedule.chain t in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "tasks: %d, makespan: %d\n" (Schedule.task_count t)
    (Schedule.makespan t);
  Printf.bprintf buf "total waiting: %d, max single wait: %d\n" (total_waiting t)
    (max_waiting t);
  List.iter
    (fun k ->
      Printf.bprintf buf
        "  P%-2d  tasks %-3d  link busy %5.1f%%  cpu busy %5.1f%%  max buffered %d\n"
        k
        (List.length (Schedule.tasks_on t k))
        (100.0 *. link_utilisation t k)
        (100.0 *. proc_utilisation t k)
        (buffer_high_water t k))
    (Msts_util.Intx.range 1 (Chain.length chain));
  Buffer.contents buf

let spider_master_utilisation t =
  Intervals.utilisation
    (Spider_schedule.master_port_intervals t)
    ~horizon:(Spider_schedule.makespan t)

let spider_summary t =
  let spider = Spider_schedule.spider t in
  let makespan = Spider_schedule.makespan t in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "tasks: %d, makespan: %d, master port busy %.1f%%\n"
    (Spider_schedule.task_count t) makespan
    (100.0 *. spider_master_utilisation t);
  List.iter
    (fun l ->
      let leg = Spider_schedule.leg_schedule t l in
      Printf.bprintf buf "leg %d: %d tasks\n" l (Schedule.task_count leg);
      List.iter
        (fun k ->
          Printf.bprintf buf
            "  depth %-2d  tasks %-3d  link busy %5.1f%%  cpu busy %5.1f%%  max buffered %d\n"
            k
            (List.length (Schedule.tasks_on leg k))
            (100.0
            *. utilisation (Schedule.link_intervals leg k) ~makespan)
            (100.0
            *. utilisation (Schedule.proc_intervals leg k) ~makespan)
            (buffer_high_water leg k))
        (Msts_util.Intx.range 1
           (Chain.length (Msts_platform.Spider.leg_chain spider l))))
    (Msts_util.Intx.range 1 (Msts_platform.Spider.legs spider));
  Buffer.contents buf
