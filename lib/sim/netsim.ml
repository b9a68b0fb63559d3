module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Spider_schedule = Msts_schedule.Spider_schedule
module Plan = Msts_schedule.Plan
module Obs = Msts_obs.Obs
module Trace = Msts_trace.Trace

type execution_report = {
  realized : Spider_schedule.t;
  planned_makespan : int;
  realized_makespan : int;
  per_task_slack : int array;
}

type fault_report = {
  observed : Spider_schedule.t;
  observed_makespan : int;
  completions : int array;
  aborted_ops : int;
  returned_tasks : int;
  transfer_retries : int;
}

(* ---------- the executor ---------- *)

(* One event-driven engine runs every entry point.  The master's port,
   every link and every processor are unit-capacity FIFO resources whose
   in-flight operation can be stretched (slowdown) or aborted (drop,
   crash), so durations are evaluated when an operation starts.

   Without faults, each operation claims an engine rank when it is
   requested, its start is an engine event at (start date, that rank) and
   its completion an event scheduled when it starts.  Same-instant events
   then run exactly as if every request had reserved its slot on arrival;
   that order, ties included, defines the schedules of the fault-free
   entry points (test/netsim_reference.ml pins it).  A fault trace
   stretches and cuts operations after they would have been reserved, so
   there is no such order to keep: under faults an operation starts as
   soon as its resource frees, inside the event that frees it, one event
   per operation. *)

type tstate =
  | At_master
  | Emitting (* master-port transfer (hop 1) in flight *)
  | At_node of int
  | In_transit of int (* link transfer into node [k] in flight *)
  | Executing of int
  | Finished of int

type task = {
  id : int;
  mutable dest : Spider.address;
  mutable st : tstate;
  mutable gen : int; (* bumped whenever the task's course changes; stale
                        queue entries and retry events check it *)
  mutable comms_rev : int list; (* realised hop starts, deepest first *)
  mutable exec_start : int;
  mutable finish : int;
  mutable earliest : int; (* release date or retry backoff for emission *)
  mutable rank : int; (* engine rank of its place in the master's queue *)
  mutable queued : int; (* date it joined that queue *)
}

type op = {
  owner : task;
  o_gen : int;
  what : Trace.op; (* what to do, and its identity for the trace recorder *)
  o_rank : int; (* engine rank claimed at request *)
  ready : int; (* date it could have started on a free resource *)
  mutable grant : int; (* bumped by a stretch or an abort: the pending
                          completion event goes stale *)
}

type fres = {
  mutable busy : op option; (* the operation started last *)
  mutable cur_end : int;
  mutable armed : int; (* epoch of the pending start event *)
  mutable arming : bool; (* a start event is pending *)
  waiting : op Queue.t;
}

let fres_create () =
  { busy = None; cur_end = 0; armed = 0; arming = false; waiting = Queue.create () }

let stale op = op.o_gen <> op.owner.gen

(* Abort the in-flight operation without restarting the queue: the
   resource may just have died (its entries go stale in the task sweep). *)
let abort r =
  match r.busy with
  | None -> None
  | Some op ->
      r.busy <- None;
      op.grant <- op.grant + 1;
      Some op

(* A node's credit gate: how many more tasks it may hold, and the
   continuations of tasks blocked until a slot frees. *)
type gate = { mutable free : int; blocked : (unit -> unit) Queue.t }

type mode =
  | Plan of { dests : Spider.address array; release : int -> int }
      (** emit in release-date order (stable), never before a task's date *)
  | Pull of { tasks : int; buffer : int }
      (** [buffer] initial requests per processor, address order *)

let validate fn spider trace =
  match Fault.validate spider trace with
  | [] -> ()
  | problems ->
      invalid_arg (fn ^ ": bad fault trace: " ^ String.concat "; " problems)

(* [buffer] is each node's number of credits in plan mode (unbounded by
   default); it is never combined with a non-empty [trace]. *)
let run ?max_events ?(buffer = max_int) ~fn spider mode trace decide =
  let trace = Fault.normalize trace in
  let reserving = trace = [] in
  let engine = Engine.create () in
  (* trace recorder shorthand: events dated at the engine's current time *)
  let tracing = Trace.recording () in
  let memit id kind =
    if tracing then Trace.emit ~time:(Engine.now engine) ~task:id kind
  in
  let state = Fault.init spider in
  let legs = Spider.legs spider in
  let port = fres_create () in
  let bank make =
    Array.init legs (fun lidx ->
        Array.init (Chain.length (Spider.leg_chain spider (lidx + 1))) (fun _ -> make ()))
  in
  let links = bank fres_create and procs = bank fres_create in
  let credits =
    if buffer = max_int then None
    else Some (bank (fun () -> { free = buffer; blocked = Queue.create () }))
  in
  (* telemetry, counted here and reported once per run *)
  let executions = ref 0 and transfers = ref 0 and waits = ref 0
  and buffer_waits = ref 0 and aborted = ref 0 and returned = ref 0
  and retries = ref 0 in
  let transfer_us = if Obs.enabled () then Some (Tally.create ()) else None in
  (* A task takes a slot at the next node before moving there; the slot
     frees when its outgoing transfer completes or its execution starts,
     and passes straight to the oldest blocked task. *)
  let with_credit ~leg ~depth k =
    match credits with
    | None -> k ()
    | Some c ->
        let g = c.(leg - 1).(depth - 1) in
        if g.free > 0 then begin
          g.free <- g.free - 1;
          k ()
        end
        else begin
          incr buffer_waits;
          Queue.push k g.blocked
        end
  in
  let free_credit ~leg ~depth =
    match credits with
    | Some c when depth >= 1 -> (
        let g = c.(leg - 1).(depth - 1) in
        match Queue.take_opt g.blocked with Some k -> k () | None -> g.free <- g.free + 1)
    | _ -> ()
  in
  let n =
    match mode with Plan { dests; _ } -> Array.length dests | Pull { tasks; _ } -> tasks
  in
  let tasks =
    Array.init n (fun idx ->
        {
          id = idx + 1;
          dest =
            (match mode with
            | Plan { dests; _ } -> dests.(idx)
            | Pull _ -> { Spider.leg = 1; depth = 1 });
          st = At_master;
          gen = 0;
          comms_rev = [];
          exec_start = 0;
          finish = 0;
          earliest = (match mode with Plan { release; _ } -> release idx | Pull _ -> 0);
          rank = 0;
          queued = 0;
        })
  in
  (* plan mode: the master's emission queue (ids, in order); pull mode:
     returned tasks awaiting a fresh processor request.  Kept as a list
     plus the newest arrivals in reverse, so appends are cheap. *)
  let pending = ref [] and arrivals = ref [] in
  let queue_order () =
    if !arrivals <> [] then begin
      pending := !pending @ List.rev !arrivals;
      arrivals := []
    end;
    !pending
  in
  let enqueue t =
    t.rank <- Engine.claim engine;
    t.queued <- Engine.now engine;
    arrivals := t.id :: !arrivals
  in
  let unqueue t =
    pending :=
      match queue_order () with
      | id :: rest when id = t.id -> rest
      | ids -> List.filter (fun id -> id <> t.id) ids
  in
  (* Until a drop sets a retry backoff, the queue is in release-date order,
     so its head is always the next emission. *)
  let backoffs = ref false in
  (* pull mode: processor requests (address, rank, date), oldest first *)
  let requests = Queue.create () in
  let minted = ref 0 in
  (* epoch of the master's pending emission event, and whether one is
     pending *)
  let port_epoch = ref 0 and port_arming = ref false in
  let task id = tasks.(id - 1) in
  let leg_chain l = Spider.leg_chain spider l in
  let free_from r =
    (* an operation ending now is busy until its completion event, but
       intervals are half-open: the next one may start now *)
    match r.busy with
    | Some _ -> max (Engine.now engine) r.cur_end
    | None -> Engine.now engine
  in
  let rec request r t what =
    Queue.push
      {
        owner = t;
        o_gen = t.gen;
        what;
        o_rank = Engine.claim engine;
        ready = Engine.now engine;
        grant = 0;
      }
      r.waiting;
    if not r.arming then arm r
  (* Start the first live waiting operation: schedule its start event,
     replacing any pending one, or under faults start it at once if the
     resource is free. *)
  and arm r =
    r.armed <- r.armed + 1;
    while (not (Queue.is_empty r.waiting)) && stale (Queue.peek r.waiting) do
      ignore (Queue.pop r.waiting)
    done;
    match Queue.peek_opt r.waiting with
    | None -> r.arming <- false
    | Some op when reserving ->
        r.arming <- true;
        let epoch = r.armed in
        Engine.schedule_claimed engine (free_from r) ~claim:op.o_rank (fun () ->
            if r.armed = epoch then begin
              let op = Queue.pop r.waiting in
              if not (stale op) then grant r op;
              arm r
            end)
    | Some op ->
        if r.busy = None then begin
          ignore (Queue.pop r.waiting);
          grant r op
        end
  and grant r op =
    let now = Engine.now engine in
    if now > op.ready then incr waits;
    r.busy <- Some op;
    r.cur_end <- now + duration op;
    started op now;
    Engine.schedule_at engine r.cur_end (complete r op op.grant)
  and complete r op g () =
    if op.grant = g then begin
      (match r.busy with Some b when b == op -> r.busy <- None | _ -> ());
      finished op;
      if not reserving then if r == port then arm_port () else arm r
    end
  and duration op =
    match op.what with
    | Trace.Transfer { leg; hop } ->
        let d =
          Chain.latency (leg_chain leg) hop
          * Fault.link_factor state { Spider.leg; depth = hop }
        in
        (match transfer_us with Some tl -> Tally.add tl d | None -> ());
        d
    | Trace.Compute { leg; depth } ->
        Chain.work (leg_chain leg) depth * Fault.proc_factor state { Spider.leg; depth }
  and started op s =
    let t = op.owner in
    memit t.id (Start op.what);
    match op.what with
    | Trace.Transfer { hop = 1; _ } ->
        t.st <- Emitting;
        t.comms_rev <- [ s ]
    | Trace.Transfer { hop; _ } ->
        t.st <- In_transit hop;
        t.comms_rev <- s :: t.comms_rev
    | Trace.Compute { leg; depth } ->
        t.st <- Executing depth;
        t.exec_start <- s;
        (* execution begins: the buffer slot at the destination frees *)
        free_credit ~leg ~depth
  and finished op =
    let t = op.owner in
    memit t.id (Finish op.what);
    match op.what with
    | Trace.Transfer { leg; hop } ->
        t.st <- At_node hop;
        (* outgoing transfer done: the relay's slot frees *)
        free_credit ~leg ~depth:(hop - 1);
        proceed t
    | Trace.Compute { depth; _ } -> (
        t.st <- Finished depth;
        t.finish <- Engine.now engine;
        match mode with
        | Plan _ -> ()
        | Pull _ ->
            (* the processor asks for more work as soon as it finishes *)
            ask { t.dest with Spider.depth })
  and proceed t =
    match t.st with
    | At_node k ->
        let { Spider.leg; depth } = t.dest in
        if k = depth then begin
          incr executions;
          request procs.(leg - 1).(k - 1) t (Trace.Compute { leg; depth })
        end
        else
          let hop = k + 1 in
          with_credit ~leg ~depth:hop (fun () ->
              incr transfers;
              request links.(leg - 1).(hop - 1) t (Trace.Transfer { leg; hop }))
    | _ -> ()
  and ask addr =
    Queue.push (addr, Engine.claim engine, Engine.now engine) requests;
    if not !port_arming then arm_port ()
  (* The master's next emission if the port is free from date [at]: the
     task, the engine rank of the request it answers, the date it became
     ready, and the date it can start. *)
  and next_emission at =
    (* first task in queue order whose release date or backoff has expired,
       else the first of those that become eligible earliest *)
    let eligible () =
      match queue_order () with
      | [] -> None
      | id :: _ when not !backoffs -> Some (task id, max at (task id).earliest)
      | ids -> (
          match List.find_opt (fun id -> (task id).earliest <= at) ids with
          | Some id -> Some (task id, at)
          | None ->
              let tmin =
                List.fold_left (fun m id -> min m (task id).earliest) max_int ids
              in
              Some (task (List.find (fun id -> (task id).earliest = tmin) ids), tmin))
    in
    match mode with
    | Plan _ ->
        Option.map
          (fun (t, date) -> (t, t.rank, max t.queued t.earliest, date))
          (eligible ())
    | Pull { tasks = budget; _ } -> (
        (* oldest request from a processor that still exists *)
        let rec head () =
          match Queue.peek_opt requests with
          | Some (addr, _, _) when not (Fault.is_alive state addr) ->
              ignore (Queue.pop requests);
              head ()
          | found -> found
        in
        match head () with
        | None -> None
        | Some (_, rank, asked) -> (
            match eligible () with
            | Some (t, date) when date = at -> Some (t, rank, max asked t.earliest, at)
            | _ when !minted < budget -> Some (tasks.(!minted), rank, asked, at)
            | Some (t, date) -> Some (t, rank, max asked t.earliest, date)
            | None -> None))
  (* Schedule the master's next emission, replacing any pending one; every
     change to the queue that could alter the choice re-arms it.  Under
     faults: send now if the port is free, else wake up when a backoff
     expires (the port's completion re-arms). *)
  and arm_port () =
    incr port_epoch;
    port_arming := false;
    match next_emission (free_from port) with
    | None -> ()
    | Some (t, rank, ready, date) ->
        if reserving then begin
          port_arming := true;
          let epoch = !port_epoch in
          Engine.schedule_claimed engine date ~claim:rank (fun () ->
              if !port_epoch = epoch then begin
                send t ~rank ~ready;
                arm_port ()
              end)
        end
        else if port.busy = None then
          if date = Engine.now engine then send t ~rank ~ready
          else Engine.schedule_at engine date arm_port
  and send t ~rank ~ready =
    (match mode with
    | Plan _ -> unqueue t
    | Pull _ ->
        let addr, _, _ = Queue.pop requests in
        if t.id > !minted then incr minted else unqueue t;
        t.dest <- addr);
    incr transfers;
    grant port
      {
        owner = t;
        o_gen = t.gen;
        what = Trace.Transfer { leg = t.dest.Spider.leg; hop = 1 };
        o_rank = rank;
        ready;
        grant = 0;
      }
  in
  let stretch r ~factor =
    match r.busy with
    | None -> ()
    | Some op ->
        let now = Engine.now engine in
        r.cur_end <- now + ((r.cur_end - now) * factor);
        op.grant <- op.grant + 1;
        Engine.schedule_at engine r.cur_end (complete r op op.grant);
        if r.arming then arm r
  in
  (* blind static rule when a destination dies: deepest survivor on the
     same leg, else depth 1 of the first surviving leg *)
  let master_fallback t =
    let leg = t.dest.Spider.leg in
    let a = Fault.alive_depth state ~leg in
    if a >= 1 then t.dest <- { Spider.leg; depth = min t.dest.Spider.depth a }
    else begin
      let rec find l =
        if l > legs then
          invalid_arg
            (fn ^ ": fault trace leaves no processor alive while tasks remain")
        else if Fault.alive_depth state ~leg:l >= 1 then l
        else find (l + 1)
      in
      t.dest <- { Spider.leg = find 1; depth = 1 }
    end
  in
  let return_to_master t =
    t.gen <- t.gen + 1;
    t.st <- At_master;
    t.comms_rev <- [];
    memit t.id Trace.Return;
    incr returned;
    enqueue t;
    match mode with Plan _ -> master_fallback t | Pull _ -> ()
  in
  let clamp t survive =
    if t.dest.Spider.depth > survive then
      t.dest <- { t.dest with Spider.depth = survive }
  in
  let sweep_task ~leg ~survive t =
    match t.st with
    | Finished _ -> ()
    | At_master -> (
        match mode with
        | Plan _ ->
            if t.dest.Spider.leg = leg && t.dest.Spider.depth > survive then
              master_fallback t
        | Pull _ -> () (* destinations are assigned at emission *))
    | Emitting ->
        if t.dest.Spider.leg = leg then
          if survive = 0 then return_to_master t else clamp t survive
    | In_transit k ->
        if t.dest.Spider.leg = leg then
          if k > survive then begin
            (* the transfer into [k] was aborted in the resource sweep *)
            let p = k - 1 in
            if p = 0 || p > survive then return_to_master t
            else begin
              t.st <- At_node p;
              t.comms_rev <- List.tl t.comms_rev;
              clamp t survive;
              t.gen <- t.gen + 1;
              proceed t
            end
          end
          else clamp t survive
    | At_node k ->
        if t.dest.Spider.leg = leg then
          if k > survive then return_to_master t
          else if t.dest.Spider.depth > survive then begin
            clamp t survive;
            if t.dest.Spider.depth = k then begin
              (* was queued on a now-dead link; execute here instead *)
              t.gen <- t.gen + 1;
              proceed t
            end
          end
    | Executing k ->
        if t.dest.Spider.leg = leg && k > survive then return_to_master t
  in
  let abort_op r =
    match abort r with
    | Some op ->
        incr aborted;
        memit op.owner.id (Trace.Abort op.what);
        Some op
    | None -> None
  in
  let crash_sweep ~leg ~survive ~old_alive =
    for k = survive + 1 to old_alive do
      ignore (abort_op links.(leg - 1).(k - 1));
      ignore (abort_op procs.(leg - 1).(k - 1))
    done;
    (if survive = 0 then
       match port.busy with
       | Some op when op.owner.dest.Spider.leg = leg -> ignore (abort_op port)
       | _ -> ());
    Array.iter (sweep_task ~leg ~survive) tasks
  in
  let build_snapshot index at =
    let completed = ref [] and in_flight = ref [] in
    Array.iter
      (fun t ->
        match t.st with
        | Finished _ -> completed := t.id :: !completed
        | At_master -> ()
        | Emitting | At_node _ | In_transit _ | Executing _ ->
            in_flight := (t.id, t.dest) :: !in_flight)
      tasks;
    {
      Fault.time = at;
      state = Fault.copy state;
      completed = List.rev !completed;
      in_flight = List.rev !in_flight;
      at_master = List.map (fun id -> (id, (task id).dest)) (queue_order ());
      remaining = List.filteri (fun i _ -> i > index) trace;
    }
  in
  let apply_redirect lst =
    let ids = List.map fst lst in
    if List.sort compare ids <> List.sort compare (queue_order ()) then
      invalid_arg
        "Msts.Netsim.replay_under_faults: Redirect must cover exactly the \
         master-resident tasks";
    List.iter
      (fun (id, addr) ->
        if not (Fault.is_alive state addr) then
          invalid_arg
            "Msts.Netsim.replay_under_faults: Redirect to a dead processor";
        (task id).dest <- addr)
      lst;
    pending := ids
  in
  let handle_fault index at event =
    Obs.count "netsim.fault_events";
    (match event with
    | Fault.Slow_proc { address = { Spider.leg; depth }; factor } ->
        Fault.apply state event;
        if depth <= Fault.alive_depth state ~leg then
          stretch procs.(leg - 1).(depth - 1) ~factor
    | Fault.Slow_link { address = { Spider.leg; depth }; factor } ->
        Fault.apply state event;
        if depth = 1 then (
          (* the master port is busy for hop 1 of whichever leg it feeds *)
          match port.busy with
          | Some op when op.owner.dest.Spider.leg = leg -> stretch port ~factor
          | _ -> ())
        else if depth <= Fault.alive_depth state ~leg then
          stretch links.(leg - 1).(depth - 1) ~factor
    | Fault.Drop_transfer { address = { Spider.leg; depth }; penalty } ->
        if depth = 1 then (
          match port.busy with
          | Some op when op.owner.dest.Spider.leg = leg -> (
              match abort_op port with
              | None -> ()
              | Some { owner = t; _ } ->
                  incr retries;
                  t.gen <- t.gen + 1;
                  t.st <- At_master;
                  t.comms_rev <- [];
                  t.earliest <- at + penalty;
                  backoffs := true;
                  enqueue t;
                  (* pull mode: the requesting processor is still idle and
                     waiting — its request goes back in the queue *)
                  (match mode with
                  | Plan _ -> ()
                  | Pull _ ->
                      Queue.push (t.dest, Engine.claim engine, at) requests))
          | _ -> ())
        else (
          let link = links.(leg - 1).(depth - 1) in
          match abort_op link with
          | None -> ()
          | Some { owner = t; _ } ->
              incr retries;
              t.gen <- t.gen + 1;
              t.st <- At_node (depth - 1);
              t.comms_rev <- List.tl t.comms_rev;
              let g = t.gen in
              Engine.schedule_at engine (at + penalty) (fun () ->
                  if t.gen = g then proceed t);
              (* the link itself recovers at once: let queued users in *)
              arm link)
    | Fault.Crash_proc { Spider.leg; depth = _ } ->
        let old_alive = Fault.alive_depth state ~leg in
        Fault.apply state event;
        let survive = Fault.alive_depth state ~leg in
        if survive < old_alive then crash_sweep ~leg ~survive ~old_alive);
    (match mode with
    | Pull _ -> ()
    | Plan _ -> (
        match decide (build_snapshot index at) with
        | Fault.Keep -> ()
        | Fault.Redirect lst -> apply_redirect lst));
    arm_port ()
  in
  (* Fault events are scheduled first, so at equal timestamps they fire
     before any operation: faults take effect at the start of their
     instant. *)
  List.iteri
    (fun index { Fault.at; event } ->
      Engine.schedule_at engine at (fun () -> handle_fault index at event))
    trace;
  (match mode with
  | Plan _ ->
      List.iter
        (fun t ->
          with_credit ~leg:t.dest.Spider.leg ~depth:1 (fun () ->
              enqueue t;
              if not !port_arming then arm_port ()))
        (List.stable_sort
           (fun a b -> Int.compare a.earliest b.earliest)
           (Array.to_list tasks))
  | Pull { buffer; _ } ->
      List.iter
        (fun addr ->
          for _ = 1 to buffer do
            ask addr
          done)
        (Spider.addresses spider));
  (* the tallies are reported also when the run fails (event budget) *)
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (name, n) -> if !n > 0 then Obs.count ~n:!n name)
        [
          ("netsim.executions", executions);
          ("netsim.transfers", transfers);
          ("netsim.resource_waits", waits);
          ("netsim.buffer_waits", buffer_waits);
          ("netsim.aborted_ops", aborted);
          ("netsim.returned_tasks", returned);
          ("netsim.transfer_retries", retries);
        ];
      Option.iter (fun tl -> Tally.emit tl "netsim.transfer_us") transfer_us)
    (fun () -> Engine.run ?max_events engine);
  Array.iter
    (fun t ->
      match t.st with
      | Finished _ -> ()
      | _ ->
          invalid_arg
            (fn
           ^ ": unserved tasks remain after the run (did the trace kill every \
              processor?)"))
    tasks;
  let entries =
    Array.map
      (fun t ->
        {
          Spider_schedule.address = t.dest;
          start = t.exec_start;
          comms = Array.of_list (List.rev t.comms_rev);
        })
      tasks
  in
  {
    observed = Spider_schedule.make spider entries;
    observed_makespan = Array.fold_left (fun acc t -> max acc t.finish) 0 tasks;
    completions = Array.map (fun t -> t.finish) tasks;
    aborted_ops = !aborted;
    returned_tasks = !returned;
    transfer_retries = !retries;
  }

let keep (_ : Fault.snapshot) = Fault.Keep

(* Run a plan's routing, tasks emitted in entry order (or by [release]
   date) on [spider]. *)
let run_plan ?max_events ?buffer ?(release = fun _ -> 0) ?(trace = [])
    ?(decide = keep) ~fn spider plan =
  let entries = Spider_schedule.entries plan in
  let dests = Array.map (fun (e : Spider_schedule.entry) -> e.address) entries in
  run ?max_events ?buffer ~fn spider
    (Plan { dests; release = (fun i -> release entries.(i)) })
    trace decide

(* ---------- entry points ---------- *)

let report_of plan (r : fault_report) =
  let realized = r.observed in
  let done_ = Spider_schedule.entries realized in
  {
    realized;
    planned_makespan = Spider_schedule.makespan plan;
    realized_makespan = Spider_schedule.makespan realized;
    per_task_slack =
      Array.mapi
        (fun idx (e : Spider_schedule.entry) -> e.start - done_.(idx).start)
        (Spider_schedule.entries plan);
  }

let execute_spider plan =
  (match Spider_schedule.check ~require_nonnegative:true plan with
  | [] -> ()
  | problems ->
      invalid_arg
        ("Msts.Netsim.execute: infeasible plan: " ^ String.concat "; " problems));
  Obs.span "netsim.execute"
    ~args:[ ("tasks", string_of_int (Spider_schedule.task_count plan)) ]
  @@ fun () ->
  (* Released at its planned emission date, a task finds the port free
     (the plan is feasible); the rest flows eagerly. *)
  report_of plan
    (run_plan ~fn:"Msts.Netsim.execute"
       ~release:(fun (e : Spider_schedule.entry) ->
         Msts_schedule.Comm_vector.first_emission e.comms)
       (Spider_schedule.spider plan) plan)

let execute = function
  | Plan.Spider plan -> execute_spider plan
  | Plan.Chain plan -> execute_spider (Spider_schedule.of_chain_schedule plan)

let same_shape a b =
  Spider.legs a = Spider.legs b
  && List.for_all
       (fun l -> Chain.length (Spider.leg_chain a l) = Chain.length (Spider.leg_chain b l))
       (List.init (Spider.legs a) (fun i -> i + 1))

let replay_routing ?(buffer = max_int) ?on plan =
  if buffer < 1 then invalid_arg "Msts.Netsim.replay_routing: buffer must be >= 1";
  Obs.span "netsim.replay_routing"
    ~args:[ ("tasks", string_of_int (Spider_schedule.task_count plan)) ]
  @@ fun () ->
  let spider =
    match on with
    | None -> Spider_schedule.spider plan
    | Some other ->
        if not (same_shape other (Spider_schedule.spider plan)) then
          invalid_arg "Msts.Netsim.replay_routing: platform shape mismatch";
        other
  in
  report_of plan (run_plan ~buffer ~fn:"Msts.Netsim.replay_routing" spider plan)

let degrade ?(latency_factor = 1) spider ~address ~work_factor =
  if work_factor < 1 then
    invalid_arg "Msts.Netsim.degrade: work_factor must be >= 1";
  if latency_factor < 1 then
    invalid_arg "Msts.Netsim.degrade: latency_factor must be >= 1";
  Spider.scale ~latency_factor ~work_factor spider address

let faulty_span mode trace =
  Obs.span "netsim.faulty_run"
    ~args:[ ("mode", mode); ("fault_events", string_of_int (List.length trace)) ]

let replay_under_faults ?max_events ?(trace = []) ?decide plan =
  let fn = "Msts.Netsim.replay_under_faults" in
  let spider = Spider_schedule.spider plan in
  validate fn spider trace;
  faulty_span "plan" trace @@ fun () ->
  run_plan ?max_events ~trace ?decide ~fn spider plan

let pull_under_faults ?max_events ?(trace = []) spider ~tasks =
  let fn = "Msts.Netsim.pull_under_faults" in
  if tasks < 0 then invalid_arg (fn ^ ": negative task count");
  validate fn spider trace;
  faulty_span "pull" trace @@ fun () ->
  run ?max_events ~fn spider (Pull { tasks; buffer = 1 }) trace keep

let pull_policy ?(buffer = 1) spider ~tasks =
  if buffer < 1 then invalid_arg "Msts.Netsim.pull_policy: buffer must be >= 1";
  if tasks < 0 then invalid_arg "Msts.Netsim.pull_policy: negative task count";
  Obs.span "netsim.pull" ~args:[ ("tasks", string_of_int tasks) ] @@ fun () ->
  (run ~fn:"Msts.Netsim.pull_policy" spider (Pull { tasks; buffer }) [] keep).observed
