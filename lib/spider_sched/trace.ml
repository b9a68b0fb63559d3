module Spider = Msts_platform.Spider
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
  leg_tasks : int array;
  virtual_nodes : Expansion.vnode list;
  accepted : step5 list;
  result : Msts_schedule.Spider_schedule.t;
}

let run ?(budget = max_int) spider ~deadline =
  if deadline < 0 then invalid_arg "Spider algorithm: negative deadline";
  if budget < 0 then invalid_arg "Spider algorithm: negative budget";
  let ceiling = Algorithm.Ceiling.build ~budget spider ~horizon:deadline in
  let { Algorithm.counts; comm; work; leg; rank; accepted }, result =
    Algorithm.Ceiling.steps ceiling ~deadline
  in
  let virtual_nodes =
    List.init (Array.length comm) (fun j ->
        { Expansion.slave = leg.(j) + 1; rank = rank.(j); comm = comm.(j); work = work.(j) })
  in
  (* transfers back-to-back from time 0, in emission order *)
  let rows = ref [] and emission = ref 0 in
  Array.iteri
    (fun position j ->
      rows :=
        {
          position;
          leg = leg.(j) + 1;
          leg_task = counts.(leg.(j)) - rank.(j);
          emission = !emission;
          (* the node's work is what the leg schedule leaves after [C¹ + c₁] *)
          original_emission = deadline - work.(j) - comm.(j);
          virtual_work = work.(j);
        }
        :: !rows;
      emission := !emission + comm.(j))
    accepted;
  { spider; deadline; leg_tasks = counts; virtual_nodes; accepted = List.rev !rows; result }

let render t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "Spider algorithm, T_lim = %d, on %s\n" t.deadline
    (Spider.to_string t.spider);
  Printf.bprintf buf "\nStep 1 - deadline schedules per leg:\n";
  Array.iteri
    (fun idx tasks ->
      Printf.bprintf buf "  leg %d: %d tasks fit by %d\n" (idx + 1) tasks t.deadline)
    t.leg_tasks;
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

