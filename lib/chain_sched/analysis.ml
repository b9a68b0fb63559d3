module Chain = Msts_platform.Chain
module Schedule = Msts_schedule.Schedule

let tasks_per_processor chain n =
  let sched = Algorithm.schedule chain n in
  let counts = Array.make (Chain.length chain) 0 in
  for i = 1 to Schedule.task_count sched do
    let proc = Schedule.proc sched i in
    counts.(proc - 1) <- counts.(proc - 1) + 1
  done;
  counts

let used_depth chain n =
  let counts = tasks_per_processor chain n in
  let deepest = ref 0 in
  Array.iteri (fun idx count -> if count > 0 then deepest := idx + 1) counts;
  !deepest

let activation_threshold chain ~k ~max_n =
  if k < 1 || k > Chain.length chain then
    invalid_arg "Analysis.activation_threshold: processor out of range";
  let rec scan n =
    if n > max_n then None
    else if (tasks_per_processor chain n).(k - 1) > 0 then Some n
    else scan (n + 1)
  in
  scan 1

