(* The reservation-based network executors as they stood before lib/sim/
   netsim.ml was folded onto its single fault-capable FIFO engine, kept as
   the oracle for the differential suite in test_netsim.ml.  Buffered replay,
   release-dated execution and the pull baseline have no analytic
   substitute, so this frozen copy is what pins their schedules.

   The unit-capacity resource and the credit gate the executors used are
   inlined below.  Telemetry (spans, counters) is left out; the trace
   instrumentation is kept, so recorded traces can be compared too. *)

module Spider = Msts.Spider
module Chain = Msts.Chain
module Spider_schedule = Msts.Spider_schedule

(* The callback engine the executors were written against, as a thin
   layer over the int-coded [Msts.Engine]: each callback is queued under
   its index in a table. *)
module Engine = struct
  type t = { e : Msts.Engine.t; mutable actions : (unit -> unit) array; mutable n : int }

  let create () = { e = Msts.Engine.create (); actions = [||]; n = 0 }
  let now t = Msts.Engine.now t.e

  let schedule_at t time f =
    if t.n = Array.length t.actions then begin
      let a = Array.make (max 16 (2 * t.n)) ignore in
      Array.blit t.actions 0 a 0 t.n;
      t.actions <- a
    end;
    t.actions.(t.n) <- f;
    Msts.Engine.schedule_at t.e time t.n;
    t.n <- t.n + 1

  let run t = Msts.Engine.run t.e (fun i -> t.actions.(i) ())
end
module Trace = Msts.Trace

(* ---------- unit-capacity reservation resource ---------- *)

(* A request reserves the resource from [max free_at now] for its
   duration; [on_start] fires as an engine event at that date.  The busy
   log keeps the granted intervals, newest first. *)
module Resource = struct
  type t = {
    engine : Engine.t;
    name : string;
    mutable free_at : int;
    mutable log : int Msts.Intervals.interval list;
    mutable served : int;
  }

  let create engine ~name = { engine; name; free_at = 0; log = []; served = 0 }

  let name t = t.name

  let request t ~duration ~tag ~on_start =
    if duration < 0 then invalid_arg "Resource.request: negative duration";
    let start = max t.free_at (Engine.now t.engine) in
    t.free_at <- start + duration;
    t.log <- { Msts.Intervals.start; duration; tag } :: t.log;
    t.served <- t.served + 1;
    Engine.schedule_at t.engine start (fun () -> on_start start)

  let busy_log t = List.rev t.log

  let served t = t.served

  let idle_until t = t.free_at
end

(* ---------- counting credit gate ---------- *)

(* [acquire] runs the continuation at once when a slot is free, otherwise
   queues it; [release] hands the slot to the oldest waiter. *)
module Credit = struct
  type t = { mutable free : int; waiting : (unit -> unit) Queue.t }

  let create capacity = { free = capacity; waiting = Queue.create () }

  let acquire t k =
    if t.free > 0 then begin
      t.free <- t.free - 1;
      k ()
    end
    else Queue.push k t.waiting

  let release t =
    match Queue.take_opt t.waiting with
    | Some k -> k ()
    | None -> t.free <- t.free + 1
end

(* ---------- the eager network ---------- *)

type record = {
  mutable address : Spider.address;
  mutable start : int;
  comms : int array;
}

type net = {
  engine : Engine.t;
  spider : Spider.t;
  port : Resource.t;
  links : Resource.t array array;
  procs : Resource.t array array;
}

let build spider =
  let engine = Engine.create () in
  let bank () =
    Array.init (Spider.legs spider) (fun lidx ->
        Array.init
          (Chain.length (Spider.leg_chain spider (lidx + 1)))
          (fun kidx ->
            Resource.create engine
              ~name:(Printf.sprintf "l%d k%d" (lidx + 1) (kidx + 1))))
  in
  {
    engine;
    spider;
    port = Resource.create engine ~name:"master port";
    links = bank ();
    procs = bank ();
  }

let rec forward net record ~task ~at ~on_complete =
  let { Spider.leg; depth } = record.address in
  let chain = Spider.leg_chain net.spider leg in
  if at = depth then begin
    let w = Chain.work chain depth in
    Resource.request net.procs.(leg - 1).(depth - 1) ~duration:w ~tag:task
      ~on_start:(fun start ->
        record.start <- start;
        Trace.emit ~time:start ~task (Start (Compute { leg; depth }));
        Engine.schedule_at net.engine (start + w) (fun () ->
            Trace.emit ~time:(start + w) ~task (Finish (Compute { leg; depth }));
            on_complete ()))
  end
  else begin
    let next = at + 1 in
    let c = Chain.latency chain next in
    Resource.request net.links.(leg - 1).(next - 1) ~duration:c ~tag:task
      ~on_start:(fun start ->
        record.comms.(next - 1) <- start;
        Trace.emit ~time:start ~task (Start (Transfer { leg; hop = next }));
        Engine.schedule_at net.engine (start + c) (fun () ->
            Trace.emit ~time:(start + c) ~task (Finish (Transfer { leg; hop = next }));
            forward net record ~task ~at:next ~on_complete))
  end

let emit net record ~task ~on_complete =
  let { Spider.leg; _ } = record.address in
  let c1 = Chain.latency (Spider.leg_chain net.spider leg) 1 in
  Resource.request net.port ~duration:c1 ~tag:task ~on_start:(fun start ->
      record.comms.(0) <- start;
      Trace.emit ~time:start ~task (Start (Transfer { leg; hop = 1 }));
      Engine.schedule_at net.engine (start + c1) (fun () ->
          Trace.emit ~time:(start + c1) ~task (Finish (Transfer { leg; hop = 1 }));
          forward net record ~task ~at:1 ~on_complete))

let fresh_record address =
  { address; start = 0; comms = Array.make address.Spider.depth 0 }

let to_schedule spider records =
  Schedule_reference.spider_plan spider
    (Array.map
       (fun r ->
         { Schedule_reference.Spider_schedule.address = r.address; start = r.start; comms = r.comms })
       records)

(* ---------- executors ---------- *)

let run_sequence_spider spider seq =
  let net = build spider in
  let records = Array.map fresh_record seq in
  Array.iteri
    (fun idx record -> emit net record ~task:(idx + 1) ~on_complete:(fun () -> ()))
    records;
  Engine.run net.engine;
  to_schedule spider records

(* Release each task at its planned emission date (the port is free then
   in a feasible plan) and let the rest flow eagerly.  Returns the
   realised schedule. *)
let execute plan =
  let spider = Spider_schedule.spider plan in
  let net = build spider in
  let entries = Schedule_reference.spider_rows plan in
  let records =
    Array.map (fun (e : Schedule_reference.Spider_schedule.entry) -> fresh_record e.address) entries
  in
  Array.iteri
    (fun idx (e : Schedule_reference.Spider_schedule.entry) ->
      let record = records.(idx) in
      let c1 = Chain.latency (Spider.leg_chain spider e.address.Spider.leg) 1 in
      let planned_emission = e.comms.(0) in
      let task = idx + 1 in
      let hop1 = Trace.Transfer { leg = e.address.Spider.leg; hop = 1 } in
      Engine.schedule_at net.engine planned_emission (fun () ->
          record.comms.(0) <- planned_emission;
          Trace.emit ~time:planned_emission ~task (Start hop1);
          Engine.schedule_at net.engine (planned_emission + c1) (fun () ->
              Trace.emit ~time:(planned_emission + c1) ~task (Finish hop1);
              forward net record ~task ~at:1 ~on_complete:(fun () -> ()))))
    entries;
  Engine.run net.engine;
  to_schedule spider records

(* Replay a plan's routing and emission order on [spider] (the plan's own
   platform or a same-shape variant) with [buffer] credits per node.
   Returns the realised schedule. *)
let replay_routing ?(buffer = max_int) ?on plan =
  let spider = match on with None -> Spider_schedule.spider plan | Some s -> s in
  let net = build spider in
  let credits =
    Array.init (Spider.legs spider) (fun lidx ->
        Array.init
          (Chain.length (Spider.leg_chain spider (lidx + 1)))
          (fun _ -> Credit.create buffer))
  in
  let credit { Spider.leg; depth } = credits.(leg - 1).(depth - 1) in
  let records =
    Array.map
      (fun (e : Schedule_reference.Spider_schedule.entry) -> fresh_record e.address)
      (Schedule_reference.spider_rows plan)
  in
  let rec forward_bounded record ~task ~at =
    let { Spider.leg; depth } = record.address in
    let chain = Spider.leg_chain net.spider leg in
    if at = depth then begin
      let w = Chain.work chain depth in
      Resource.request net.procs.(leg - 1).(depth - 1) ~duration:w ~tag:task
        ~on_start:(fun start ->
          record.start <- start;
          if Trace.recording () then begin
            Trace.emit ~time:start ~task (Start (Compute { leg; depth }));
            Engine.schedule_at net.engine (start + w) (fun () ->
                Trace.emit ~time:(start + w) ~task (Finish (Compute { leg; depth })))
          end;
          Credit.release (credit { Spider.leg; depth = at }))
    end
    else begin
      let next = at + 1 in
      let c = Chain.latency chain next in
      Credit.acquire (credit { Spider.leg; depth = next }) (fun () ->
          Resource.request net.links.(leg - 1).(next - 1) ~duration:c ~tag:task
            ~on_start:(fun start ->
              record.comms.(next - 1) <- start;
              Trace.emit ~time:start ~task (Start (Transfer { leg; hop = next }));
              Engine.schedule_at net.engine (start + c) (fun () ->
                  Trace.emit ~time:(start + c) ~task
                    (Finish (Transfer { leg; hop = next }));
                  Credit.release (credit { Spider.leg; depth = at });
                  forward_bounded record ~task ~at:next)))
    end
  in
  Array.iteri
    (fun idx record ->
      let { Spider.leg; _ } = record.address in
      let c1 = Chain.latency (Spider.leg_chain net.spider leg) 1 in
      let task = idx + 1 in
      Credit.acquire (credit { Spider.leg; depth = 1 }) (fun () ->
          Resource.request net.port ~duration:c1 ~tag:task ~on_start:(fun start ->
              record.comms.(0) <- start;
              Trace.emit ~time:start ~task (Start (Transfer { leg; hop = 1 }));
              Engine.schedule_at net.engine (start + c1) (fun () ->
                  Trace.emit ~time:(start + c1) ~task (Finish (Transfer { leg; hop = 1 }));
                  forward_bounded record ~task ~at:1))))
    records;
  Engine.run net.engine;
  to_schedule spider records

(* Demand-driven master: [buffer] initial requests per processor in
   address order, one more each time a processor finishes a task. *)
let pull_policy ?(buffer = 1) spider ~tasks =
  let net = build spider in
  let emitted = ref 0 in
  let records = ref [] in
  let rec serve address =
    if !emitted < tasks then begin
      incr emitted;
      let task = !emitted in
      let record = fresh_record address in
      records := record :: !records;
      emit net record ~task ~on_complete:(fun () -> serve address)
    end
  in
  List.iter
    (fun address ->
      for _ = 1 to buffer do
        serve address
      done)
    (Spider.addresses spider);
  Engine.run net.engine;
  to_schedule spider (Array.of_list (List.rev !records))
