module Spider = Msts_platform.Spider
module Schedule = Msts_schedule.Schedule
module Comm_vector = Msts_schedule.Comm_vector
module Allocator = Msts_fork.Allocator
module Expansion = Msts_fork.Expansion

type step5 = {
  position : int;
  leg : int;
  leg_task : int;
  emission : int;
  original_emission : int;
  virtual_work : int;
}

type t = {
  spider : Spider.t;
  deadline : int;
  leg_schedules : Schedule.t array;
  virtual_nodes : Expansion.vnode list;
  accepted : step5 list;
  result : Msts_schedule.Spider_schedule.t;
}

let run ?(budget = max_int) spider ~deadline =
  let leg_schedules = Algorithm.leg_schedules ~budget spider ~deadline in
  let virtual_nodes =
    Expansion.allocation_order (Algorithm.virtual_fork spider ~deadline leg_schedules)
  in
  let allocations = Allocator.allocate virtual_nodes ~deadline ~budget in
  let accepted =
    List.map
      (fun { Allocator.node; emission; position } ->
        let leg = node.Expansion.slave in
        let leg_task =
          Transform.task_of_rank leg_schedules.(leg - 1) ~rank:node.Expansion.rank
        in
        {
          position;
          leg;
          leg_task;
          emission;
          original_emission =
            Comm_vector.first_emission
              (Schedule.entry leg_schedules.(leg - 1) leg_task).comms;
          virtual_work = node.Expansion.work;
        })
      allocations
  in
  {
    spider;
    deadline;
    leg_schedules;
    virtual_nodes;
    accepted;
    result = Algorithm.schedule ~budget spider ~deadline;
  }

let render t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "Spider algorithm, T_lim = %d, on %s\n" t.deadline
    (Spider.to_string t.spider);
  Printf.bprintf buf "\nStep 1 - deadline schedules per leg:\n";
  Array.iteri
    (fun idx leg_sched ->
      Printf.bprintf buf "  leg %d: %d tasks fit by %d\n" (idx + 1)
        (Schedule.task_count leg_sched) t.deadline)
    t.leg_schedules;
  Printf.bprintf buf
    "\nSteps 2-3 - virtual fork (one single-task node per leg task):\n";
  List.iter
    (fun v ->
      Printf.bprintf buf "  leg %d rank %d: comm %d, remaining work %d\n"
        v.Expansion.slave v.Expansion.rank v.Expansion.comm v.Expansion.work)
    t.virtual_nodes;
  Printf.bprintf buf
    "\nStep 4 - greedy one-port allocation (emissions back-to-back, \
     decreasing remaining work):\n";
  List.iter
    (fun a ->
      Printf.bprintf buf
        "  #%d: leg %d task %d, emit at %d (leg plan had %d; Lemma 3: never \
         later), work %d\n"
        (a.position + 1) a.leg a.leg_task a.emission a.original_emission
        a.virtual_work)
    t.accepted;
  Printf.bprintf buf "\nStep 5 - reverted spider schedule: %d tasks, makespan %d\n"
    (Msts_schedule.Spider_schedule.task_count t.result)
    (Msts_schedule.Spider_schedule.makespan t.result);
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (render t)
