module Schedule = Msts_schedule.Schedule
module Comm_vector = Msts_schedule.Comm_vector
module Chain = Msts_platform.Chain
module Expansion = Msts_fork.Expansion

let virtual_nodes ~leg ~deadline sched =
  let chain = Schedule.chain sched in
  let c1 = Chain.latency chain 1 in
  let m = Schedule.task_count sched in
  List.map
    (fun task ->
      let first = Comm_vector.first_emission (Schedule.entry sched task).comms in
      let work = deadline - first - c1 in
      if work < 0 then
        invalid_arg
          (Printf.sprintf
             "Transform.virtual_nodes: task %d emitted at %d exceeds deadline %d"
             task first deadline);
      { Expansion.slave = leg; rank = m - task; comm = c1; work })
    (Msts_util.Intx.range 1 m)

let task_of_rank sched ~rank =
  let m = Schedule.task_count sched in
  if rank < 0 || rank >= m then
    invalid_arg (Printf.sprintf "Transform.task_of_rank: rank %d outside 0..%d" rank (m - 1));
  m - rank
