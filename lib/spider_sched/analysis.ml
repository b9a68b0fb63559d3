module Spider = Msts_platform.Spider
module Spider_schedule = Msts_schedule.Spider_schedule

let tasks_per_leg spider n =
  let sched = Algorithm.schedule_tasks spider n in
  Array.init (Spider.legs spider) (fun idx ->
      List.length (Spider_schedule.tasks_on_leg sched (idx + 1)))

let leg_activation spider ~leg ~max_n =
  if leg < 1 || leg > Spider.legs spider then
    invalid_arg "Analysis.leg_activation: leg out of range";
  let rec scan n =
    if n > max_n then None
    else if (tasks_per_leg spider n).(leg - 1) > 0 then Some n
    else scan (n + 1)
  in
  scan 1

let port_utilisation spider n =
  if n = 0 then 0.0
  else begin
    let sched = Algorithm.schedule_tasks spider n in
    Msts_schedule.Intervals.utilisation
      (Spider_schedule.master_port_intervals sched)
      ~horizon:(Spider_schedule.makespan sched)
  end

let split_profile spider ~ns = List.map (fun n -> (n, tasks_per_leg spider n)) ns

let rate_agreement spider n =
  let counts = tasks_per_leg spider n in
  let rates = Msts_schedule.Steady_state.spider_leg_rates spider in
  let total_rate = Array.fold_left ( +. ) 0.0 rates in
  Array.mapi
    (fun idx count ->
      let measured = float_of_int count /. float_of_int (max n 1) in
      let predicted = rates.(idx) /. total_rate in
      if predicted = 0.0 then if count = 0 then 0.0 else infinity
      else measured /. predicted)
    counts
