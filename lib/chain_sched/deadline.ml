module Chain = Msts_platform.Chain
module Obs = Msts_obs.Obs

let construction ?max_tasks chain ~deadline =
  if deadline < 0 then invalid_arg "Deadline.schedule: negative deadline";
  (match max_tasks with
  | Some budget when budget < 0 -> invalid_arg "Deadline.schedule: negative max_tasks"
  | _ -> ());
  Obs.span "chain.deadline.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  (* Presize the store: a construction never places more tasks than its
     budget, nor more than the horizon holds — disjoint emissions of [c1]
     on the first link, disjoint executions of [w_k] on each processor
     (a zero duration bounds nothing, and presizing stays off). *)
  let capacity =
    match max_tasks with
    | None -> 0
    | Some budget ->
        let fit d = if d > 0 then (deadline / d) + 1 else max_int in
        let execute = ref 0 in
        for k = 1 to Chain.length chain do
          let f = fit (Chain.work chain k) in
          execute := if f = max_int || !execute = max_int then max_int else !execute + f
        done;
        let bound = min budget (min (fit (Chain.latency chain 1)) !execute) in
        if bound = max_int then 0 else bound
  in
  let construction = Incremental.create ~capacity chain ~horizon:deadline in
  let (_ : int) = Incremental.fill construction ?max_tasks () in
  construction

let schedule ?max_tasks chain ~deadline =
  Incremental.schedule (construction ?max_tasks chain ~deadline)

let max_tasks chain ~deadline =
  if deadline < 0 then invalid_arg "Deadline.max_tasks: negative deadline";
  Obs.span "chain.deadline.max_tasks" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let construction = Incremental.create chain ~horizon:deadline in
  Incremental.fill construction ()

let min_makespan_via_deadline chain n =
  if n < 0 then invalid_arg "Deadline.min_makespan_via_deadline: negative n";
  if n = 0 then 0
  else begin
    Obs.span "chain.deadline.min_makespan" ~args:[ ("n", string_of_int n) ]
    @@ fun () ->
    let hi = Chain.master_only_makespan chain n in
    (* Every bound is provably <= OPT, so starting the search there skips
       the whole infeasible prefix without risking the answer. *)
    let lo =
      Msts_schedule.Bounds.spider_combined_bound (Msts_platform.Spider.of_chain chain) n
    in
    match
      Msts_util.Intx.binary_search_least ~lo ~hi (fun d ->
          Obs.count "chain.deadline.search_probes";
          max_tasks chain ~deadline:d >= n)
    with
    | Some d -> d
    | None -> hi (* unreachable: the master-only schedule meets [hi] *)
  end
