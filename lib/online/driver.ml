module Chain = Msts.Chain
module Schedule = Msts.Schedule
module Engine = Msts.Engine
module Trace = Msts.Trace

type action =
  | Submit of int
  | Extend of int
  | Degrade of { at : int; work_factor : int }

type event = { at : int; action : action }

type outcome = {
  session : Online.t;
  plan : Msts.Plan.t;
  frozen_plan : Msts.Plan.t;
  placed : int;
  rejected : int;
  frozen : int;
  refusals : (int * string) list;
}

(* The planned truth of frozen task [i] of [sched], as the events the simulator
   would record executing it: the chain is leg 1 of the degenerate spider,
   transfers walk hops 1..proc, the computation runs at depth proc.  Frozen
   tasks never sit on a processor degraded later (Online.degrade refuses)
   and degradations scale work only, so the current chain's durations are
   exact for every already-frozen placement. *)
let emit_frozen chain ~task sched i =
  let leg = 1 and depth = Schedule.proc sched i in
  for hop = 1 to depth do
    let c = Chain.latency chain hop in
    let start = Schedule.emission sched i hop in
    Trace.emit ~time:start ~task (Trace.Start (Trace.Transfer { leg; hop }));
    Trace.emit ~time:(start + c) ~task
      (Trace.Finish (Trace.Transfer { leg; hop }))
  done;
  let w = Chain.work chain depth and start = Schedule.start sched i in
  Trace.emit ~time:start ~task (Trace.Start (Trace.Compute { leg; depth }));
  Trace.emit ~time:(start + w) ~task (Trace.Finish (Trace.Compute { leg; depth }))

let run ?capacity ?emit chain ~deadline events =
  List.iter
    (fun { at; _ } ->
      if at < 0 then invalid_arg "Msts.Online.Driver.run: event before time 0")
    events;
  let o = Online.create ?capacity chain ~deadline in
  let eng = Engine.create () in
  let seen = ref 0 in
  let refusals = ref [] in
  (* Pull the frontier up to the simulated clock, then stream the trace of
     whatever just froze (arrival ids name the tasks). *)
  let sync time =
    ignore (Online.advance ?emit o ~time);
    if Trace.recording () then begin
      let fz = Online.frozen o in
      if fz > !seen then begin
        let ids, sched = Online.frozen_since o !seen in
        Array.iteri (fun j id -> emit_frozen (Online.chain o) ~task:id sched (j + 1)) ids
      end;
      seen := fz
    end
  in
  let refuse msg = refusals := (Engine.now eng, msg) :: !refusals in
  (* each script event is queued under its index *)
  let script = Array.of_list events in
  Array.iteri (fun i { at; _ } -> Engine.schedule_at eng at i) script;
  Engine.run eng (fun i ->
      sync (Engine.now eng);
      match script.(i).action with
      | Submit n -> ignore (Online.submit ?emit o n)
      | Extend deadline -> (
          match Online.extend ?emit o ~deadline with
          | Ok _ -> ()
          | Error msg -> refuse msg)
      | Degrade { at; work_factor } -> (
          match Online.degrade ?emit o ~at ~work_factor with
          | Ok _ -> ()
          | Error msg -> refuse msg));
  (* Run the clock out to the (possibly extended) deadline: every placement
     ends up frozen, so the final plan and the executed prefix coincide. *)
  sync (Online.deadline o);
  {
    session = o;
    plan = Online.plan o;
    frozen_plan = Msts.Plan.Chain (Online.frozen_schedule o);
    placed = Online.placed o;
    rejected = Online.rejected o;
    frozen = Online.frozen o;
    refusals = List.rev !refusals;
  }
