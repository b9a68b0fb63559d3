(* [Replan.replay] as it stood before the keep-forever cost was memoised:
   at every fault event with a candidate redirect it simulates both the
   keep and the redirect continuations.  Kept as the oracle for the
   differential property in test_faults.ml.  Telemetry (spans, counters)
   is left out; [lookaheads] counts the continuations simulated. *)

module Spider = Msts.Spider
module Spider_schedule = Msts.Spider_schedule
module Fault = Msts.Fault

let lookaheads = ref 0

let scripted decisions =
  let remaining = ref decisions in
  fun (_ : Fault.snapshot) ->
    match !remaining with
    | [] -> Fault.Keep
    | d :: rest ->
        remaining := rest;
        d

let candidate snap =
  match snap.Fault.at_master with
  | [] -> None
  | at_master -> (
      match Fault.residual snap.Fault.state with
      | None -> None
      | Some (residual, leg_map) -> (
          let m = List.length at_master in
          match Msts.Spider_algorithm.schedule_tasks residual m with
          | exception _ -> None
          | plan ->
              let entries = Schedule_reference.spider_rows plan in
              if Array.length entries <> m then None
              else
                let back (a : Spider.address) =
                  { Spider.leg = leg_map.(a.Spider.leg - 1); depth = a.Spider.depth }
                in
                let redirect =
                  List.mapi
                    (fun j (id, _) ->
                      (id, back entries.(j).address))
                    at_master
                in
                Some (redirect, plan, leg_map)))

let splice plan snap residual_plan leg_map =
  let spider = Spider_schedule.spider plan in
  let at_master_ids = List.map fst snap.Fault.at_master in
  let kept =
    Spider_schedule.filter_tasks plan ~keep:(fun i -> not (List.mem i at_master_ids))
  in
  let mapped =
    Array.map
      (fun (e : Schedule_reference.Spider_schedule.entry) ->
        {
          e with
          Schedule_reference.Spider_schedule.address =
            {
              Spider.leg = leg_map.(e.address.Spider.leg - 1);
              depth = e.address.Spider.depth;
            };
        })
      (Schedule_reference.spider_rows
         (Spider_schedule.shift residual_plan ~delta:snap.Fault.time))
  in
  Spider_schedule.concat kept (Schedule_reference.spider_plan spider mapped)

let eval plan trace decisions =
  incr lookaheads;
  match Msts.Netsim.replay_under_faults ~trace ~decide:(scripted decisions) plan with
  | r -> r.Msts.Netsim.observed_makespan
  | exception _ -> max_int

let replay ?(trace = []) plan =
  let trace = Fault.normalize trace in
  let history = ref [] in
  let replans = ref 0 and considered = ref 0 in
  let final_intent = ref None in
  let decide snap =
    let h = List.rev !history in
    let choice =
      match candidate snap with
      | None -> Fault.Keep
      | Some (redirect_list, residual_plan, leg_map) ->
          incr considered;
          let keep_cost = eval plan trace (h @ [ Fault.Keep ]) in
          let redirect = Fault.Redirect redirect_list in
          let redirect_cost = eval plan trace (h @ [ redirect ]) in
          if redirect_cost < keep_cost then begin
            incr replans;
            final_intent := Some (splice plan snap residual_plan leg_map);
            redirect
          end
          else Fault.Keep
    in
    history := choice :: !history;
    choice
  in
  let report = Msts.Netsim.replay_under_faults ~trace ~decide plan in
  {
    Msts.Replan.report;
    replans = !replans;
    considered = !considered;
    final_intent = !final_intent;
  }
