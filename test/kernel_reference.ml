(* The reference kernel as it stood when the library still let a caller
   choose it: Algorithm.makespan's candidate-scan branch, Incremental's
   probe-and-place, and Spider_algorithm's rebuild-per-probe search.  Kept
   verbatim, spans and counters included, as the oracle the differential
   tests compare the O(p) sweep against and the reference the
   kernel-scaling bench times.  The fork allocator's insertion loop, which
   the class sweep of [Msts.Fork_allocator] replaced, is kept the same way
   and is the one the spider search here runs, on the list-based §7 steps
   the library ran before its spider algorithm moved to flat arrays:
   Figure 7's virtual nodes built from each leg's schedule, sorted in
   allocation order, and mapped back to leg tasks by rank. *)

module Chain = Msts.Chain
module Algorithm = Msts.Chain_algorithm
module Schedule = Msts.Schedule
module Spider = Msts.Spider
module Spider_schedule = Msts.Spider_schedule
module Comm_vector = Msts.Comm_vector
module Obs = Msts.Obs

(* ---------- list-based §7 steps ---------- *)

type allocation = {
  node : Msts.Fork_expansion.vnode;
  emission : int;  (* start of the transfer on the master's port *)
  position : int;  (* 0-based position in emission order *)
}

module Expansion = struct
  include Msts.Fork_expansion

  let compare_alloc a b =
    let by_comm = Int.compare a.comm b.comm in
    if by_comm <> 0 then by_comm
    else begin
      let by_work = Int.compare a.work b.work in
      if by_work <> 0 then by_work
      else begin
        let by_slave = Int.compare a.slave b.slave in
        if by_slave <> 0 then by_slave else Int.compare a.rank b.rank
      end
    end

  let allocation_order nodes = List.sort compare_alloc nodes
end

let allocation_order = Expansion.allocation_order

(* Figure 7: one node per task of a leg's deadline schedule, ranked from
   its last emission. *)
module Transform = struct
  let virtual_nodes ~leg ~deadline sched =
    let chain = Schedule.chain sched in
    let c1 = Chain.latency chain 1 in
    let m = Schedule.task_count sched in
    List.map
      (fun task ->
        let first = Schedule.emission sched task 1 in
        let work = deadline - first - c1 in
        if work < 0 then
          invalid_arg
            (Printf.sprintf
               "Transform.virtual_nodes: task %d emitted at %d exceeds deadline %d"
               task first deadline);
        { Expansion.slave = leg; rank = m - task; comm = c1; work })
      (Msts.Intx.range 1 m)

  let task_of_rank sched ~rank =
    let m = Schedule.task_count sched in
    if rank < 0 || rank >= m then
      invalid_arg (Printf.sprintf "Transform.task_of_rank: rank %d outside 0..%d" rank (m - 1));
    m - rank
end

let task_of_rank = Transform.task_of_rank

let virtual_fork spider ~deadline legs =
  let nodes =
    List.concat_map
      (fun l -> Transform.virtual_nodes ~leg:l ~deadline legs.(l - 1))
      (Msts.Intx.range 1 (Spider.legs spider))
  in
  Obs.count ~n:(List.length nodes) "spider.virtual_nodes";
  nodes

let select = Algorithm.select
let horizon = Algorithm.horizon

(* ---------- chain makespan ---------- *)

(* Placement without the step record: same state mutation and counters as
   [Algorithm.place], but no [state_before] deep copy and no retained
   candidate array. *)
let place_light ~select chain (st : Algorithm.state) =
  let all_candidates = Algorithm.candidates chain st in
  let proc = select all_candidates + 1 in
  let vector = all_candidates.(proc - 1) in
  let start = st.occupancy.(proc - 1) - Chain.work chain proc in
  st.occupancy.(proc - 1) <- start;
  for j = 1 to proc do
    st.hull.(j - 1) <- vector.(j - 1)
  done;
  Obs.count "chain.tasks_placed";
  Obs.count ~n:proc "chain.hull_updates";
  (proc, vector, start)

let makespan chain n =
  if n = 0 then 0
  else begin
    Obs.span "chain.makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    (* The last-placed (first-emitted) task fixes the shift; task n always
       finishes exactly at the horizon. *)
    let st = Algorithm.initial_state chain ~horizon:(horizon chain n) in
    let first_emission = ref 0 in
    for task = n downto 1 do
      let _, vector, _ = place_light ~select chain st in
      if task = 1 then first_emission := vector.(0)
    done;
    horizon chain n - !first_emission
  end

(* ---------- deadline construction ---------- *)

(* Incremental's placement store as it stood: struct-of-arrays buffers
   grown geometrically, placement [i] emitting strictly earlier than
   placement [i-1]. *)
type construction = {
  chain : Chain.t;
  st : Algorithm.state;
  mutable procs : int array; (* procs.(i): processor of placement i *)
  mutable starts : int array; (* starts.(i): compute start date *)
  mutable offs : int array; (* offs.(i): offset of comms in [pool] *)
  mutable pool : int array; (* flat comm-vector storage *)
  mutable pool_len : int;
  mutable placed : int;
  mutable full : bool;
}

let create chain ~horizon =
  if horizon < 0 then invalid_arg "Kernel_reference.create: negative horizon";
  {
    chain;
    st = Algorithm.initial_state chain ~horizon;
    procs = [||];
    starts = [||];
    offs = [||];
    pool = [||];
    pool_len = 0;
    placed = 0;
    full = false;
  }

let grow a n = Array.append a (Array.make n 0)

let ensure_room t ~proc =
  let cap = Array.length t.procs in
  if t.placed >= cap then begin
    let extra = max 8 cap in
    t.procs <- grow t.procs extra;
    t.starts <- grow t.starts extra;
    t.offs <- grow t.offs extra
  end;
  let pcap = Array.length t.pool in
  if t.pool_len + proc > pcap then
    t.pool <- grow t.pool (max proc (max 64 pcap))

let record t ~proc ~start =
  let i = t.placed in
  t.procs.(i) <- proc;
  t.starts.(i) <- start;
  t.offs.(i) <- t.pool_len;
  t.pool_len <- t.pool_len + proc;
  t.placed <- i + 1

let add_task_from t ~min_emission =
  if t.full then false
  else begin
    (* Probe with the would-be greatest candidate before committing. *)
    let cands = Algorithm.candidates t.chain t.st in
    let best = Algorithm.select cands in
    if cands.(best).(0) < min_emission then begin
      t.full <- true;
      false
    end
    else begin
      let step = Algorithm.place t.chain t.st ~task:(t.placed + 1) in
      ensure_room t ~proc:step.Algorithm.chosen_proc;
      Array.blit step.Algorithm.chosen_vector 0 t.pool t.pool_len
        step.Algorithm.chosen_proc;
      record t ~proc:step.Algorithm.chosen_proc ~start:step.Algorithm.start;
      true
    end
  end

let fill t ?(max_tasks = max_int) () =
  while t.placed < max_tasks && add_task_from t ~min_emission:0 do
    ()
  done;
  t.placed

let earliest_emission t =
  if t.placed = 0 then None else Some t.pool.(t.offs.(t.placed - 1))

let entry_at t i =
  {
    Schedule_reference.Schedule.proc = t.procs.(i);
    start = t.starts.(i);
    comms = Array.sub t.pool t.offs.(i) t.procs.(i);
  }

(* Emission order is reverse construction order. *)
let schedule t =
  Schedule_reference.chain_plan t.chain
    (Array.init t.placed (fun j -> entry_at t (t.placed - 1 - j)))

let deadline_schedule ?max_tasks chain ~deadline =
  if deadline < 0 then invalid_arg "Deadline.schedule: negative deadline";
  (match max_tasks with
  | Some budget when budget < 0 -> invalid_arg "Deadline.schedule: negative max_tasks"
  | _ -> ());
  Obs.span "chain.deadline.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let construction = create chain ~horizon:deadline in
  let (_ : int) = fill construction ?max_tasks () in
  schedule construction

(* ---------- fork allocator: insertion ---------- *)

(* [accepted.(0 .. size − 1)] with transfers back-to-back from time 0. *)
let emission_schedule accepted size =
  let rec build i emission acc =
    if i < 0 then acc
    else
      let node = accepted.(i) in
      let emission = emission - node.Expansion.comm in
      build (i - 1) emission ({ node; emission; position = i } :: acc)
  in
  let total = ref 0 in
  for i = 0 to size - 1 do
    total := !total + accepted.(i).Expansion.comm
  done;
  build (size - 1) !total []

let allocate candidates ~deadline ~budget =
  if deadline < 0 then invalid_arg "Allocator.allocate: negative deadline";
  if budget < 0 then invalid_arg "Allocator.allocate: negative budget";
  Msts.Obs.span "fork.allocate" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let total = List.length candidates in
  Msts.Obs.count ~n:total "fork.nodes_considered";
  (* Accepted nodes kept sorted by non-increasing [work]; ties keep
     insertion order.  At most [budget] are ever accepted. *)
  let accepted =
    Array.make (min budget total)
      { Expansion.slave = 0; rank = 0; comm = 0; work = 0 }
  in
  let size = ref 0 in
  (* Insert [candidate] if feasible: it lands after every node with
     greater or equal work; its own transfer must end early enough, and
     every node pushed later by its comm time must still fit. *)
  let try_insert (candidate : Expansion.vnode) =
    let pos = ref 0 and prefix = ref 0 in
    while !pos < !size && accepted.(!pos).Expansion.work >= candidate.work do
      prefix := !prefix + accepted.(!pos).Expansion.comm;
      incr pos
    done;
    let finish = ref (!prefix + candidate.comm) in
    let fits = ref (!finish + candidate.work <= deadline) in
    let k = ref !pos in
    while !fits && !k < !size do
      let node = accepted.(!k) in
      finish := !finish + node.Expansion.comm;
      fits := !finish + node.Expansion.work <= deadline;
      incr k
    done;
    if !fits then begin
      Array.blit accepted !pos accepted (!pos + 1) (!size - !pos);
      accepted.(!pos) <- candidate;
      incr size
    end
  in
  let probes = ref 0 in
  List.iter
    (fun candidate ->
      if !size < budget then begin
        incr probes;
        try_insert candidate
      end)
    (Expansion.allocation_order candidates);
  if !probes > 0 then Msts.Obs.count ~n:!probes "fork.insert_probes";
  if !size > 0 then Msts.Obs.count ~n:!size "fork.nodes_accepted";
  emission_schedule accepted !size

(* ---------- spider search ---------- *)

let leg_schedules ?(budget = max_int) spider ~deadline =
  Obs.span "spider.leg_schedules" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  Array.init (Spider.legs spider) (fun idx ->
      deadline_schedule ~max_tasks:budget
        (Spider.leg_chain spider (idx + 1))
        ~deadline)

(* Steps 2–5 on given leg schedules. *)
let assemble spider legs ~deadline ~budget =
  let nodes = virtual_fork spider ~deadline legs in
  let allocations = allocate nodes ~deadline ~budget in
  let entry_of { node; emission; _ } =
    let leg = node.Msts.Fork_expansion.slave in
    let leg_sched = legs.(leg - 1) in
    let task =
      Transform.task_of_rank leg_sched ~rank:node.Msts.Fork_expansion.rank
    in
    let proc = Schedule.proc leg_sched task in
    let comms = Schedule_reference.vector Schedule.emission leg_sched task ~depth:proc in
    (* Lemma 3: the allocator's emission is never later than the original
       first emission, so only this coordinate changes. *)
    comms.(0) <- emission;
    {
      Schedule_reference.Spider_schedule.address = { Spider.leg; depth = proc };
      start = Schedule.start leg_sched task;
      comms;
    }
  in
  Schedule_reference.spider_plan spider (Array.of_list (List.map entry_of allocations))

let spider_plan ?(budget = max_int) spider ~deadline =
  if deadline < 0 then invalid_arg "Spider algorithm: negative deadline";
  if budget < 0 then invalid_arg "Spider algorithm: negative budget";
  Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  assemble spider (leg_schedules ~budget spider ~deadline) ~deadline ~budget

let spider_max_tasks ?budget spider ~deadline =
  Spider_schedule.task_count (spider_plan ?budget spider ~deadline)

let spider_min_makespan spider n =
  if n < 0 then invalid_arg "Spider algorithm: negative task count";
  if n = 0 then 0
  else begin
    Obs.span "spider.min_makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    let hi = Msts.Spider_algorithm.makespan_upper_bound spider n in
    (* Warm start: every spider bound is provably <= OPT. *)
    let lo = Msts.Bounds.spider_combined_bound spider n in
    match
      Msts.Intx.binary_search_least ~lo ~hi (fun d ->
          Obs.count "spider.search_probes";
          spider_max_tasks ~budget:n spider ~deadline:d >= n)
    with
    | Some d -> d
    | None -> hi (* unreachable: a master-only leg schedule meets [hi] *)
  end

let spider_schedule_tasks spider n =
  spider_plan ~budget:n spider ~deadline:(spider_min_makespan spider n)
