type event = { time : int; seq : int; action : unit -> unit }

type t = {
  queue : event Msts_util.Heap.t;
  mutable clock : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable gaps : Tally.t option; (* [engine.event_gap_us], inside [run] *)
}

let compare_events a b =
  let by_time = Int.compare a.time b.time in
  if by_time <> 0 then by_time else Int.compare a.seq b.seq

let create () =
  {
    queue = Msts_util.Heap.create ~cmp:compare_events;
    clock = 0;
    next_seq = 0;
    processed = 0;
    gaps = None;
  }

let now t = t.clock

let claim t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t fn time seq action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.%s: time %d is before now (%d)" fn time t.clock);
  Msts_util.Heap.push t.queue { time; seq; action }

let schedule_at t time action = push t "schedule_at" time (claim t) action

let schedule_claimed t time ~claim action =
  push t "schedule_claimed" time claim action

let step t =
  match Msts_util.Heap.pop t.queue with
  | None -> false
  | Some ev ->
      (match t.gaps with Some g -> Tally.add g (ev.time - t.clock) | None -> ());
      t.clock <- ev.time;
      t.processed <- t.processed + 1;
      ev.action ();
      true

let drain ?max_events t =
  match max_events with
  | None -> while step t do () done
  | Some budget ->
      if budget < 1 then invalid_arg "Msts.Engine.run: max_events must be >= 1";
      let remaining = ref budget in
      let running = ref true in
      while !running do
        if !remaining = 0 && not (Msts_util.Heap.is_empty t.queue) then
          failwith
            (Printf.sprintf
               "Msts.Engine.run: event budget (%d) exhausted at simulated time \
                %d with %d events still queued — is a callback scheduling \
                events forever?"
               budget t.clock
               (Msts_util.Heap.length t.queue));
        if step t then decr remaining else running := false
      done

(* [engine.events] is tallied in [processed] and the event gaps in
   [gaps]; both are emitted once per run, also when the run fails.  With
   no sink installed there is no gap tally. *)
let run ?max_events t =
  let before = t.processed in
  t.gaps <- (if Msts_obs.Obs.enabled () then Some (Tally.create ()) else None);
  Fun.protect
    ~finally:(fun () ->
      let n = t.processed - before in
      if n > 0 then Msts_obs.Obs.count ~n "engine.events";
      Option.iter (fun g -> Tally.emit g "engine.event_gap_us") t.gaps;
      t.gaps <- None)
    (fun () -> drain ?max_events t)

