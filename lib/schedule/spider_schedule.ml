module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain

type entry = { address : Spider.address; start : int; comms : Comm_vector.t }

type t = { spider : Spider.t; entries : entry array }

let make spider entries =
  Array.iteri
    (fun idx e ->
      let task = idx + 1 in
      let { Spider.leg; depth } = e.address in
      if leg < 1 || leg > Spider.legs spider then
        invalid_arg (Printf.sprintf "Spider_schedule.make: task %d on leg %d" task leg);
      let chain = Spider.leg_chain spider leg in
      if depth < 1 || depth > Chain.length chain then
        invalid_arg
          (Printf.sprintf "Spider_schedule.make: task %d at depth %d on leg %d"
             task depth leg);
      if Array.length e.comms <> depth then
        invalid_arg
          (Printf.sprintf "Spider_schedule.make: task %d comm vector length" task))
    entries;
  { spider; entries = Array.copy entries }

let spider t = t.spider

let task_count t = Array.length t.entries

let entry t i =
  if i < 1 || i > task_count t then
    invalid_arg
      (Printf.sprintf "Spider_schedule.entry: task %d outside 1..%d" i (task_count t));
  t.entries.(i - 1)

let entries t = Array.copy t.entries

(* A loop, not a fold: a closure over [t] would cost words per call. *)
let makespan t =
  let m = ref 0 in
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) in
    let finish = e.start + Spider.work t.spider e.address in
    if finish > !m then m := finish
  done;
  !m

let tasks_on_leg t l =
  let keyed =
    List.filter_map
      (fun idx ->
        let e = t.entries.(idx) in
        if e.address.Spider.leg = l then
          Some (Comm_vector.first_emission e.comms, idx + 1)
        else None)
      (List.init (task_count t) Fun.id)
  in
  List.map snd (List.sort compare keyed)

let leg_schedule t l =
  let chain = Spider.leg_chain t.spider l in
  let entries =
    Array.of_list
      (List.filter_map
         (fun e ->
           if e.address.Spider.leg = l then
             Some
               {
                 Schedule.proc = e.address.Spider.depth;
                 start = e.start;
                 comms = e.comms;
               }
           else None)
         (Array.to_list t.entries))
  in
  Schedule.make chain entries

let master_port_intervals t =
  List.map
    (fun idx ->
      let e = t.entries.(idx) in
      let c1 = Chain.latency (Spider.leg_chain t.spider e.address.Spider.leg) 1 in
      {
        Intervals.start = Comm_vector.first_emission e.comms;
        duration = c1;
        tag = idx + 1;
      })
    (List.init (task_count t) Fun.id)

let leg_link_intervals t ~leg ~link =
  let c = Chain.latency (Spider.leg_chain t.spider leg) link in
  List.filter_map
    (fun idx ->
      let e = t.entries.(idx) in
      if e.address.Spider.leg = leg && e.address.Spider.depth >= link then
        Some { Intervals.start = e.comms.(link - 1); duration = c; tag = idx + 1 }
      else None)
    (List.init (task_count t) Fun.id)

let leg_proc_intervals t ~leg ~depth =
  let w = Chain.work (Spider.leg_chain t.spider leg) depth in
  List.filter_map
    (fun idx ->
      let e = t.entries.(idx) in
      if e.address.Spider.leg = leg && e.address.Spider.depth = depth then
        Some { Intervals.start = e.start; duration = w; tag = idx + 1 }
      else None)
    (List.init (task_count t) Fun.id)

let check ?(require_nonnegative = false) t =
  let leg_reports =
    List.concat_map
      (fun l ->
        let local = leg_schedule t l in
        List.map
          (fun v ->
            Printf.sprintf "leg %d: %s" l (Feasibility.violation_to_string v))
          (Feasibility.check ~require_nonnegative local))
      (Msts_util.Intx.range 1 (Spider.legs t.spider))
  in
  let master_report =
    match Intervals.overlap_witness (master_port_intervals t) with
    | Some (a, b) ->
        [
          Printf.sprintf "master port: emissions of tasks %d and %d overlap"
            a.Intervals.tag b.Intervals.tag;
        ]
    | None -> []
  in
  leg_reports @ master_report

let is_feasible ?require_nonnegative t = check ?require_nonnegative t = []

let meets_deadline t ~deadline =
  is_feasible ~require_nonnegative:true t && makespan t <= deadline

let shift t ~delta =
  let move (e : entry) =
    if e.start + delta < 0 || Array.exists (fun c -> c + delta < 0) e.comms then
      invalid_arg "Spider_schedule.shift: negative date after shift";
    { e with start = e.start + delta; comms = Array.map (( + ) delta) e.comms }
  in
  { t with entries = Array.map move t.entries }

let filter_tasks t ~keep =
  let entries =
    Array.of_list
      (List.filter_map
         (fun idx -> if keep (idx + 1) then Some t.entries.(idx) else None)
         (List.init (task_count t) Fun.id))
  in
  { t with entries }

let concat a b =
  if not (Msts_platform.Spider.equal a.spider b.spider) then
    invalid_arg "Spider_schedule.concat: schedules are on different spiders";
  { a with entries = Array.append a.entries b.entries }

let of_chain_schedule sched =
  let spider = Spider.of_chain (Schedule.chain sched) in
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        {
          address = { Spider.leg = 1; depth = e.proc };
          start = e.start;
          comms = e.comms;
        })
      (Schedule.entries sched)
  in
  make spider entries

let equal a b =
  Spider.equal a.spider b.spider
  && Array.length a.entries = Array.length b.entries
  && Array.for_all2
       (fun x y -> x.address = y.address && x.start = y.start && x.comms = y.comms)
       a.entries b.entries

let pp ppf t =
  Format.fprintf ppf "@[<v>spider schedule (makespan %d):@," (makespan t);
  Array.iteri
    (fun idx e ->
      Format.fprintf ppf "  task %d -> leg %d depth %d, start %d, comms %a@,"
        (idx + 1) e.address.Spider.leg e.address.Spider.depth e.start
        Comm_vector.pp e.comms)
    t.entries;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
