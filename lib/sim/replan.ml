module Spider = Msts_platform.Spider
module Spider_schedule = Msts_schedule.Spider_schedule
module Columns = Msts_schedule.Columns
module Obs = Msts_obs.Obs
module Trace = Msts_trace.Trace

type outcome = {
  report : Netsim.fault_report;
  replans : int;
  considered : int;
  final_intent : Spider_schedule.t option;
}

(* Replan the master-resident tasks on the residual platform (surviving
   prefixes, slowdowns folded in) with the optimal spider algorithm, and
   express the result as a Redirect in the original platform's
   coordinates. *)
let candidate snap =
  match snap.Fault.at_master with
  | [] -> None
  | at_master ->
      Obs.span "replan.candidate"
        ~args:[ ("at_master", string_of_int (List.length at_master)) ]
      @@ fun () -> (
      match Fault.residual snap.Fault.state with
      | None -> None
      | Some (residual, leg_map) -> (
          let m = List.length at_master in
          match Msts_spider.Algorithm.schedule_tasks residual m with
          | exception _ -> None
          | plan ->
              if Spider_schedule.task_count plan <> m then None
              else
                let redirect =
                  List.mapi
                    (fun j (id, _) ->
                      ( id,
                        {
                          Spider.leg = leg_map.(Spider_schedule.leg plan (j + 1) - 1);
                          depth = Spider_schedule.depth plan (j + 1);
                        } ))
                    at_master
                in
                Some (redirect, plan, leg_map)))

(* The spliced intended schedule: the original plan's tasks
   already emitted (or done), followed by the residual plan re-anchored at
   the fault's instant and mapped back onto the original platform.  A
   statement of intent, not a certified-feasible schedule: in-flight tasks
   keep their original (now possibly optimistic) dates. *)
let splice plan snap residual_plan leg_map =
  let spider = Spider_schedule.spider plan in
  let at_master_ids = List.map fst snap.Fault.at_master in
  let kept =
    Spider_schedule.filter_tasks plan ~keep:(fun i -> not (List.mem i at_master_ids))
  in
  (* the residual plan's dates, moved, on its legs' original numbers *)
  let moved = Spider_schedule.shift residual_plan ~delta:snap.Fault.time in
  let c = Spider_schedule.columns moved in
  let mapped =
    Spider_schedule.of_columns spider
      ~legs:(Array.init (Columns.length c) (fun i -> leg_map.(Columns.leg c i - 1)))
      ~starts:c.starts ~offsets:c.offsets ~emissions:c.emissions
  in
  Spider_schedule.concat kept mapped

(* A lookahead is not part of the execution: a recorder installed around
   [replay] sees only the realised run. *)
let eval plan trace decisions =
  Obs.span "replan.lookahead" @@ fun () ->
  Trace.without_recorder @@ fun () ->
  match Netsim.replay_under_faults ~trace ~decisions plan with
  | r -> r.Netsim.observed_makespan
  | exception _ -> max_int

let replay ?(trace = []) plan =
  Obs.span "replan.replay" ~args:[ ("fault_events", string_of_int (List.length trace)) ]
  @@ fun () ->
  let trace = Fault.normalize trace in
  let history = ref [] in (* newest first *)
  let replans = ref 0 and considered = ref 0 in
  let final_intent = ref None in
  (* The cost of the branch chosen at the last evaluated fault event.
     Scripted decisions keep once they run out, so that continuation is
     also keep-forever from every later event: it need not be simulated
     again. *)
  let chosen_cost = ref None in
  let decide snap =
    (* Lookahead selection: simulate the whole remaining run (under the
       known trace, keeping from here on) once per candidate and keep the
       cheaper branch.  Keep-forever is always a candidate, so by induction
       the realised makespan never exceeds the blind static replay's. *)
    let h = List.rev !history in
    let choice =
      match candidate snap with
      | None -> Fault.Keep
      | Some (redirect_list, residual_plan, leg_map) ->
          incr considered;
          Obs.count "replan.considered";
          let keep_cost =
            match !chosen_cost with
            | Some cost -> cost
            | None -> eval plan trace (h @ [ Fault.Keep ])
          in
          let redirect = Fault.Redirect redirect_list in
          let redirect_cost = eval plan trace (h @ [ redirect ]) in
          chosen_cost := Some (min redirect_cost keep_cost);
          if redirect_cost < keep_cost then begin
            incr replans;
            Obs.count "replan.adopted";
            final_intent := Some (splice plan snap residual_plan leg_map);
            redirect
          end
          else begin
            Obs.count "replan.rejected";
            Fault.Keep
          end
    in
    history := choice :: !history;
    choice
  in
  let report = Netsim.replay_under_faults ~trace ~decide plan in
  { report; replans = !replans; considered = !considered; final_intent = !final_intent }
