module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Schedule = Msts_schedule.Schedule
module Spider_schedule = Msts_schedule.Spider_schedule
module Allocator = Msts_fork.Allocator
module Deadline = Msts_chain.Deadline
module Obs = Msts_obs.Obs

let leg_schedules ?(budget = max_int) spider ~deadline =
  Obs.span "spider.leg_schedules" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  Array.init (Spider.legs spider) (fun idx ->
      Deadline.schedule ~max_tasks:budget
        (Spider.leg_chain spider (idx + 1))
        ~deadline)

let virtual_fork spider ~deadline legs =
  let nodes =
    List.concat_map
      (fun l -> Transform.virtual_nodes ~leg:l ~deadline legs.(l - 1))
      (Msts_util.Intx.range 1 (Spider.legs spider))
  in
  Obs.count ~n:(List.length nodes) "spider.virtual_nodes";
  nodes

(* Steps 2–5 on given leg schedules. *)
let assemble spider legs ~deadline ~budget =
  let nodes = virtual_fork spider ~deadline legs in
  let allocations = Allocator.allocate nodes ~deadline ~budget in
  let entry_of { Allocator.node; emission; _ } =
    let leg = node.Msts_fork.Expansion.slave in
    let leg_sched = legs.(leg - 1) in
    let task = Transform.task_of_rank leg_sched ~rank:node.Msts_fork.Expansion.rank in
    let original = Schedule.entry leg_sched task in
    let comms = Array.copy original.comms in
    (* Lemma 3: the allocator's emission is never later than the original
       first emission, so only this coordinate changes. *)
    comms.(0) <- emission;
    {
      Spider_schedule.address = { Spider.leg; depth = original.proc };
      start = original.start;
      comms;
    }
  in
  Spider_schedule.make spider (Array.of_list (List.map entry_of allocations))

let schedule ?(budget = max_int) spider ~deadline =
  if deadline < 0 then invalid_arg "Spider algorithm: negative deadline";
  if budget < 0 then invalid_arg "Spider algorithm: negative budget";
  Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  assemble spider (leg_schedules ~budget spider ~deadline) ~deadline ~budget

let max_tasks ?budget spider ~deadline =
  Spider_schedule.task_count (schedule ?budget spider ~deadline)

let makespan_upper_bound spider n =
  let best = ref max_int in
  for l = 1 to Spider.legs spider do
    best := min !best (Chain.master_only_makespan (Spider.leg_chain spider l) n)
  done;
  !best

(* The backward construction is shift invariant: at horizon [d] it is the
   one at horizon [H], translated by [H − d] and truncated where a first
   emission would cross time 0.  So a leg task emitted first at [C¹] at
   [H] exists at [d] iff its margin [H − C¹] is at most [d], and its
   virtual node then has comm [c₁] and work [d − (C¹ − (H − d)) − c₁ =
   margin − c₁]: neither depends on [d].  Every probe's virtual fork is
   the ceiling's, filtered by margin, and Moore–Hodgson counts it over an
   order fixed once. *)
module Ceiling = struct
  type t = {
    horizon : int;
    budget : int;
    legs : Schedule.t array; (* leg schedules at [horizon] *)
    nodes : Msts_fork.Moore_hodgson.t;
  }

  let build ?(budget = max_int) spider ~horizon =
    let legs = leg_schedules ~budget spider ~deadline:horizon in
    let size = Array.fold_left (fun acc s -> acc + Schedule.task_count s) 0 legs in
    let comm = Array.make size 0 and work = Array.make size 0 in
    let next = ref 0 in
    Array.iter
      (fun sched ->
        (* the virtual nodes of {!Transform.virtual_nodes} at [horizon] *)
        let c1 = Chain.latency (Schedule.chain sched) 1 in
        for task = 1 to Schedule.task_count sched do
          let first =
            Msts_schedule.Comm_vector.first_emission
              (Schedule.entry sched task).Schedule.comms
          in
          comm.(!next) <- c1;
          work.(!next) <- horizon - first - c1;
          incr next
        done)
      legs;
    { horizon; budget; legs; nodes = Msts_fork.Moore_hodgson.make ~comm ~work }

  let check_deadline t deadline =
    if deadline < 0 || deadline > t.horizon then
      invalid_arg
        (Printf.sprintf "Spider algorithm: deadline %d outside the ceiling 0..%d"
           deadline t.horizon)

  let count t ~deadline =
    check_deadline t deadline;
    Msts_fork.Moore_hodgson.count t.nodes ~deadline ~budget:t.budget

  let leg_schedules t ~deadline =
    check_deadline t deadline;
    let shift = t.horizon - deadline in
    Array.map
      (fun sched ->
        (* emission order: the tasks that survive the shift are a suffix *)
        let entries = Schedule.entries sched in
        let m = Array.length entries in
        let first = ref 0 in
        while
          !first < m
          && Msts_schedule.Comm_vector.first_emission entries.(!first).Schedule.comms
             < shift
        do
          incr first
        done;
        Schedule.shift shift
          (Schedule.make (Schedule.chain sched)
             (Array.sub entries !first (m - !first))))
      t.legs
end

(* The least deadline fitting [n] tasks, with the ceiling it was searched
   over ([None] only for [n = 0], which needs no search). *)
let search spider n =
  if n < 0 then invalid_arg "Spider algorithm: negative task count";
  if n = 0 then (0, None)
  else begin
    Obs.span "spider.min_makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    let hi = makespan_upper_bound spider n in
    (* Warm start: every spider bound is provably <= OPT. *)
    let lo = Msts_schedule.Bounds.spider_combined_bound spider n in
    let fits ceiling d =
      Obs.count "spider.search_probes";
      Obs.count ~n:(Array.length ceiling.Ceiling.legs) "spider.leg_reuses";
      let fits = Ceiling.count ceiling ~deadline:d >= n in
      Obs.count
        ~n:(Msts_fork.Moore_hodgson.scanned ceiling.Ceiling.nodes)
        "spider.probe_nodes";
      fits
    in
    (* [hi] is often several times OPT while [lo] is within a few percent
       of it, so the ceiling grows from [lo] by doubling gaps until it fits
       [n]; each miss lifts [lo] past it. *)
    let rec grow lo gap =
      let horizon = min hi (lo + gap) in
      let ceiling = Ceiling.build ~budget:n spider ~horizon in
      if horizon = hi || fits ceiling horizon then (lo, horizon, ceiling)
      else grow (horizon + 1) (2 * gap)
    in
    let lo, top, ceiling = grow lo (max 1 (lo / 16)) in
    match Msts_util.Intx.binary_search_least ~lo ~hi:top (fits ceiling) with
    | Some d -> (d, Some ceiling)
    | None -> (top, Some ceiling) (* unreachable: [top] fits or is [hi] *)
  end

let min_makespan spider n = fst (search spider n)

let schedule_tasks spider n =
  match search spider n with
  | deadline, None -> schedule ~budget:n spider ~deadline
  | deadline, Some ceiling ->
      Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
      @@ fun () ->
      let legs = Ceiling.leg_schedules ceiling ~deadline in
      Obs.count ~n:(Array.length legs) "spider.leg_reuses";
      assemble spider legs ~deadline ~budget:n
