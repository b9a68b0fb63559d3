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
   per operation.

   Everything is an int in an array.  Nodes are numbered leg-major,
   shallow first; resource 0 is the port, [1 + 2 node] the link into a
   node and [2 + 2 node] its processor.  A task has at most one live
   operation — requested, waiting or in progress — so the operation's
   fields are columns of the per-task block; a queue entry is a (task, generation)
   pair that went stale when the task's generation moved on.  Engine
   events are int codes [(b lsl w lor a) lsl 3 lor kind] (see [ev_*]),
   [a] below [2^w]. *)

(* task states *)
let at_master = 0
let emitting = 1 (* master-port transfer (hop 1) in flight *)
let at_node = 2 (* [t_k]: hops fully received *)
let in_transit = 3 (* link transfer into node [t_k] in flight *)
let executing = 4
let finished = 5

(* engine event kinds: a resource's start event (a = resource, b = arm
   epoch), an operation's completion (a = task, b = grant stamp), the
   master's planned emission (b = port epoch), a wake-up of the master
   under faults, a dropped transfer's retry (a = task, b = generation),
   a fault (a = index in the trace) *)
let ev_start = 0
let ev_complete = 1
let ev_emit = 2
let ev_wake = 3
let ev_retry = 4
let ev_fault = 5

(* FIFO queues of int triples over one node pool: resources' waiting
   operations (task, generation), credit gates' blocked tasks, the pull
   master's processor requests (node, rank, date). *)
module Fifo = struct
  type t = {
    head : int array; (* per queue, -1 when empty *)
    tail : int array;
    mutable a : int array;
    mutable b : int array;
    mutable c : int array;
    mutable next : int array;
    mutable used : int;
    mutable free : int;
  }

  let create queues =
    {
      head = Array.make queues (-1);
      tail = Array.make queues (-1);
      a = [||];
      b = [||];
      c = [||];
      next = [||];
      used = 0;
      free = -1;
    }

  let widen arr n =
    let b = Array.make n 0 in
    Array.blit arr 0 b 0 (Array.length arr);
    b

  let push t q a b c =
    let i =
      if t.free >= 0 then begin
        let i = t.free in
        t.free <- t.next.(i);
        i
      end
      else begin
        let i = t.used in
        if i = Array.length t.a then begin
          let n = max 32 (2 * i) in
          t.a <- widen t.a n;
          t.b <- widen t.b n;
          t.c <- widen t.c n;
          t.next <- widen t.next n
        end;
        t.used <- i + 1;
        i
      end
    in
    t.a.(i) <- a;
    t.b.(i) <- b;
    t.c.(i) <- c;
    t.next.(i) <- -1;
    if t.tail.(q) >= 0 then t.next.(t.tail.(q)) <- i else t.head.(q) <- i;
    t.tail.(q) <- i

  (* Drop the head of a non-empty queue; its fields stay readable until
     the next push. *)
  let pop t q =
    let i = t.head.(q) in
    t.head.(q) <- t.next.(i);
    if t.head.(q) < 0 then t.tail.(q) <- -1;
    t.next.(i) <- t.free;
    t.free <- i
end

type mode =
  | Plan of { plan : Spider_schedule.t; release : int -> int }
      (** the plan's routes, emitted in release-date order (stable), never
          before a task's date *)
  | Pull of { tasks : int; buffer : int }
      (** [buffer] initial requests per processor, address order *)

(* The list past its first [k] elements, shared. *)
let rec drop k = function _ :: rest when k > 0 -> drop (k - 1) rest | l -> l

let validate fn spider trace =
  match Fault.validate spider trace with
  | [] -> ()
  | problems ->
      invalid_arg (fn ^ ": bad fault trace: " ^ String.concat "; " problems)

(* What the master does after each fault in plan mode: keep its plan,
   ask a hook that sees a snapshot, or replay a decision history (one per
   fault event, then keep), which needs no snapshot. *)
type decider = Keep | Hook of (Fault.snapshot -> Fault.decision) | Script of Fault.decision list

(* [buffer] is each node's number of credits in plan mode (unbounded by
   default); it is never combined with a non-empty [trace]. *)
let run ?max_events ?(buffer = max_int) ?(decide = Keep) ~fn spider mode trace =
  let faults = Fault.normalize trace in
  let trace = Array.of_list faults in
  let decider = ref decide in
  let reserving = Array.length trace = 0 in
  let pull = match mode with Plan _ -> false | Pull _ -> true in
  let engine = Engine.create () in
  let tracing = Trace.recording () in
  let state = Fault.init spider in
  (* the platform, flattened *)
  let legs = Spider.legs spider in
  let leg_off = Array.make (legs + 1) 0 in
  for l = 1 to legs do
    leg_off.(l) <- leg_off.(l - 1) + Chain.length (Spider.leg_chain spider l)
  done;
  let nodes = leg_off.(legs) in
  let node ~leg ~depth = leg_off.(leg - 1) + depth - 1 in
  let addr = Array.make nodes { Spider.leg = 1; depth = 1 } in
  let latency = Array.make nodes 0 and work = Array.make nodes 0 in
  for l = 1 to legs do
    let chain = Spider.leg_chain spider l in
    for d = 1 to Chain.length chain do
      let v = node ~leg:l ~depth:d in
      addr.(v) <- { Spider.leg = l; depth = d };
      latency.(v) <- Chain.latency chain d;
      work.(v) <- Chain.work chain d
    done
  done;
  let port = 0 in
  let link v = 1 + (2 * v) and proc v = 2 + (2 * v) in
  let nres = 1 + (2 * nodes) in
  let r_busy = Array.make nres (-1) (* task of the operation started last *)
  and r_end = Array.make nres 0
  and r_armed = Array.make nres 0 (* epoch of the pending start event *)
  and r_arming = Array.make nres false (* a start event is pending *) in
  (* queues: one per resource, then one credit gate per node, then the
     pull master's requests *)
  let gate v = nres + v and requests = nres + nodes in
  let fifo = Fifo.create (nres + nodes + 1) in
  let credits = buffer <> max_int in
  let g_free = Array.make nodes buffer in
  (* telemetry, counted here and reported once per run *)
  let executions = ref 0 and transfers = ref 0 and waits = ref 0
  and buffer_waits = ref 0 and aborted = ref 0 and returned = ref 0
  and retries = ref 0 in
  let transfer_us = if Obs.enabled () then Some (Tally.create ()) else None in
  let n =
    match mode with
    | Plan { plan; _ } -> Spider_schedule.task_count plan
    | Pull { tasks; _ } -> tasks
  in
  let maxd = ref 0 in
  for l = 1 to legs do
    maxd := max !maxd (leg_off.(l) - leg_off.(l - 1))
  done;
  let maxd = !maxd in
  (* Per-task state, one int block of columns of [n]: the destination,
     the course ([t_st], [t_k], bumped [t_gen] whenever it changes), the
     realised dates, the release date or retry backoff, the slot in the
     master's queue and its links, the live operation, and the realised
     hop starts ([maxd] columns). *)
  let columns = 19 + maxd in
  let t_leg = 0 and t_depth = n and t_st = 2 * n and t_k = 3 * n
  and t_gen = 4 * n and t_ncomms = 5 * n and t_exec = 6 * n and t_finish = 7 * n
  and t_earliest = 8 * n and t_rank = 9 * n (* engine rank of its queue slot *)
  and t_queued = 10 * n (* date it joined the queue *)
  and o_code = 11 * n (* Trace operation code *)
  and o_res = 12 * n
  and o_rank = 13 * n (* engine rank claimed at request *)
  and o_ready = 14 * n (* date it could have started on a free resource *)
  and o_stamp = 15 * n (* its pending completion's stamp *)
  and q_next = 16 * n and q_prev = 17 * n and q_in = 18 * n
  and t_comms = 19 * n in
  let tk = Array.make (columns * n) 0 in
  for t = 0 to n - 1 do
    tk.(t_leg + t) <- 1;
    tk.(t_depth + t) <- 1;
    tk.(q_next + t) <- -1;
    tk.(q_prev + t) <- -1
  done;
  (match mode with
  | Plan { plan; release } ->
      for t = 0 to n - 1 do
        tk.(t_leg + t) <- Spider_schedule.leg plan (t + 1);
        tk.(t_depth + t) <- Spider_schedule.depth plan (t + 1);
        tk.(t_earliest + t) <- release t
      done
  | Pull _ -> ());
  let stamps = ref 0 in
  let fresh () =
    incr stamps;
    !stamps
  in
  (* event codes *)
  let w =
    let top = max (max nres n) (Array.length trace) and w = ref 1 in
    while 1 lsl !w <= top do
      incr w
    done;
    !w
  in
  let code kind ~a ~b = (((b lsl w) lor a) lsl 3) lor kind in
  let memit t c =
    if tracing then Trace.emit_code ~time:(Engine.now engine) ~task:(t + 1) c
  in
  (* plan mode: the master's emission queue; pull mode: returned tasks
     awaiting a fresh processor request.  A doubly linked list over task
     indices, -1 ending it. *)
  let q_head = ref (-1) and q_tail = ref (-1) in
  let q_append t =
    tk.(q_prev + t) <- !q_tail;
    tk.(q_next + t) <- -1;
    if !q_tail >= 0 then tk.(q_next + !q_tail) <- t else q_head := t;
    q_tail := t;
    tk.(q_in + t) <- 1
  in
  let unqueue t =
    if tk.(q_in + t) = 1 then begin
      let p = tk.(q_prev + t) and nx = tk.(q_next + t) in
      if p >= 0 then tk.(q_next + p) <- nx else q_head := nx;
      if nx >= 0 then tk.(q_prev + nx) <- p else q_tail := p;
      tk.(q_in + t) <- 0
    end
  in
  let queue_order () =
    let rec go t acc = if t < 0 then List.rev acc else go tk.(q_next + t) (t :: acc) in
    go !q_head []
  in
  let enqueue t =
    tk.(t_rank + t) <- Engine.claim engine;
    tk.(t_queued + t) <- Engine.now engine;
    q_append t
  in
  (* Until a drop sets a retry backoff, the queue is in release-date order,
     so its head is always the next emission. *)
  let backoffs = ref false in
  let minted = ref 0 in
  (* epoch of the master's pending emission event, whether one is pending,
     and what it will send *)
  let port_epoch = ref 0 and port_arming = ref false in
  let pe_task = ref 0 and pe_rank = ref 0 and pe_ready = ref 0 in
  (* [next_emission]'s answer *)
  let ne_task = ref 0 and ne_rank = ref 0 and ne_ready = ref 0 and ne_date = ref 0 in
  let free_from r =
    (* an operation ending now is busy until its completion event, but
       intervals are half-open: the next one may start now *)
    if r_busy.(r) >= 0 then max (Engine.now engine) r_end.(r) else Engine.now engine
  in
  let stale e = fifo.Fifo.b.(e) <> tk.(t_gen + fifo.Fifo.a.(e)) in
  let rec request r t op =
    tk.(o_code + t) <- op;
    tk.(o_res + t) <- r;
    tk.(o_rank + t) <- Engine.claim engine;
    tk.(o_ready + t) <- Engine.now engine;
    Fifo.push fifo r t tk.(t_gen + t) 0;
    if not r_arming.(r) then arm r
  (* Start the first live waiting operation: schedule its start event,
     replacing any pending one, or under faults start it at once if the
     resource is free. *)
  and arm r =
    r_armed.(r) <- r_armed.(r) + 1;
    while fifo.head.(r) >= 0 && stale fifo.head.(r) do
      Fifo.pop fifo r
    done;
    let e = fifo.head.(r) in
    if e < 0 then r_arming.(r) <- false
    else if reserving then begin
      r_arming.(r) <- true;
      Engine.schedule_claimed engine (free_from r) ~claim:tk.(o_rank + fifo.a.(e))
        (code ev_start ~a:r ~b:r_armed.(r))
    end
    else if r_busy.(r) < 0 then begin
      let t = fifo.a.(e) in
      Fifo.pop fifo r;
      grant r t
    end
  and start_event r epoch =
    if r_armed.(r) = epoch then begin
      let e = fifo.head.(r) in
      let t = fifo.a.(e) and live = not (stale e) in
      Fifo.pop fifo r;
      if live then grant r t;
      arm r
    end
  and grant r t =
    let now = Engine.now engine in
    if now > tk.(o_ready + t) then incr waits;
    r_busy.(r) <- t;
    r_end.(r) <- now + duration t;
    started t now;
    let stamp = fresh () in
    tk.(o_stamp + t) <- stamp;
    Engine.schedule_at engine r_end.(r) (code ev_complete ~a:t ~b:stamp)
  and complete t stamp =
    if tk.(o_stamp + t) = stamp then begin
      let r = tk.(o_res + t) in
      if r_busy.(r) = t then r_busy.(r) <- -1;
      finish t;
      if not reserving then if r = port then arm_port () else arm r
    end
  and duration t =
    let op = tk.(o_code + t) in
    let v = node ~leg:tk.(t_leg + t) ~depth:(Trace.Code.pos op) in
    if Trace.Code.is_compute op then work.(v) * Fault.proc_factor state addr.(v)
    else begin
      let d = latency.(v) * Fault.link_factor state addr.(v) in
      (match transfer_us with Some tl -> Tally.add tl d | None -> ());
      d
    end
  and started t s =
    let op = tk.(o_code + t) in
    memit t (Trace.Code.start op);
    let pos = Trace.Code.pos op in
    if Trace.Code.is_compute op then begin
      tk.(t_st + t) <- executing;
      tk.(t_k + t) <- pos;
      tk.(t_exec + t) <- s;
      (* execution begins: the buffer slot at the destination frees *)
      free_credit ~leg:tk.(t_leg + t) ~depth:pos
    end
    else begin
      tk.(t_st + t) <- (if pos = 1 then emitting else in_transit);
      tk.(t_k + t) <- pos;
      if pos = 1 then tk.(t_ncomms + t) <- 0;
      tk.(t_comms + (t * maxd) + tk.(t_ncomms + t)) <- s;
      tk.(t_ncomms + t) <- tk.(t_ncomms + t) + 1
    end
  and finish t =
    let op = tk.(o_code + t) in
    memit t (Trace.Code.finish op);
    let pos = Trace.Code.pos op in
    if Trace.Code.is_compute op then begin
      tk.(t_st + t) <- finished;
      tk.(t_k + t) <- pos;
      tk.(t_finish + t) <- Engine.now engine;
      (* pull: the processor asks for more work as soon as it finishes *)
      if pull then ask (node ~leg:tk.(t_leg + t) ~depth:pos)
    end
    else begin
      tk.(t_st + t) <- at_node;
      tk.(t_k + t) <- pos;
      (* outgoing transfer done: the relay's slot frees *)
      free_credit ~leg:tk.(t_leg + t) ~depth:(pos - 1);
      proceed t
    end
  (* A task takes a slot at the next node before moving there; the slot
     frees when its outgoing transfer completes or its execution starts,
     and passes straight to the oldest blocked task. *)
  and with_credit t ~leg ~depth =
    if not credits then admitted t ~depth
    else begin
      let v = node ~leg ~depth in
      if g_free.(v) > 0 then begin
        g_free.(v) <- g_free.(v) - 1;
        admitted t ~depth
      end
      else begin
        incr buffer_waits;
        Fifo.push fifo (gate v) t 0 0
      end
    end
  (* What a task holding its slot at [depth] does: at depth 1 it joins the
     master's queue, deeper it asks for the link into that node. *)
  and admitted t ~depth =
    if depth = 1 then begin
      enqueue t;
      if not !port_arming then arm_port ()
    end
    else begin
      incr transfers;
      let leg = tk.(t_leg + t) in
      request (link (node ~leg ~depth)) t (Trace.Code.transfer ~leg ~hop:depth)
    end
  and free_credit ~leg ~depth =
    if credits && depth >= 1 then begin
      let v = node ~leg ~depth in
      let g = gate v in
      let e = fifo.head.(g) in
      if e >= 0 then begin
        let t = fifo.a.(e) in
        Fifo.pop fifo g;
        admitted t ~depth
      end
      else g_free.(v) <- g_free.(v) + 1
    end
  and proceed t =
    if tk.(t_st + t) = at_node then begin
      let k = tk.(t_k + t) and leg = tk.(t_leg + t) in
      if k = tk.(t_depth + t) then begin
        incr executions;
        request (proc (node ~leg ~depth:k)) t (Trace.Code.compute ~leg ~depth:k)
      end
      else with_credit t ~leg ~depth:(k + 1)
    end
  and ask v =
    Fifo.push fifo requests v (Engine.claim engine) (Engine.now engine);
    if not !port_arming then arm_port ()
  (* The master's next emission if the port is free from date [at], into
     [ne_*]: the task, the engine rank of the request it answers, the date
     it became ready, and the date it can start.  [false] when there is
     none. *)
  (* First task in queue order whose release date or backoff has expired
     by [at], else the first of those that become eligible earliest: into
     [ne_task] and [ne_date]; [false] on an empty queue. *)
  and eligible at =
    let h = !q_head in
    if h < 0 then false
    else if not !backoffs then begin
      ne_task := h;
      ne_date := max at tk.(t_earliest + h);
      true
    end
    else begin
      let t = ref h in
      while !t >= 0 && tk.(t_earliest + !t) > at do
        t := tk.(q_next + !t)
      done;
      if !t >= 0 then begin
        ne_task := !t;
        ne_date := at
      end
      else begin
        let best = ref h in
        let t = ref tk.(q_next + h) in
        while !t >= 0 do
          if tk.(t_earliest + !t) < tk.(t_earliest + !best) then best := !t;
          t := tk.(q_next + !t)
        done;
        ne_task := !best;
        ne_date := tk.(t_earliest + !best)
      end;
      true
    end
  (* The master's next emission if the port is free from date [at], into
     [ne_*]: the task, the engine rank of the request it answers, the date
     it became ready, and the date it can start.  [false] when there is
     none. *)
  and next_emission at =
    if not pull then
      eligible at
      && begin
           let t = !ne_task in
           ne_rank := tk.(t_rank + t);
           ne_ready := max tk.(t_queued + t) tk.(t_earliest + t);
           true
         end
    else begin
      (* oldest request from a processor that still exists *)
      while
        fifo.head.(requests) >= 0
        && not (Fault.is_alive state addr.(fifo.a.(fifo.head.(requests))))
      do
        Fifo.pop fifo requests
      done;
      let e = fifo.head.(requests) in
      if e < 0 then false
      else begin
        let rank = fifo.b.(e) and asked = fifo.c.(e) in
        ne_rank := rank;
        let found = eligible at in
        if found && !ne_date = at then begin
          ne_ready := max asked tk.(t_earliest + !ne_task);
          true
        end
        else if !minted < n then begin
          ne_task := !minted;
          ne_ready := asked;
          ne_date := at;
          true
        end
        else if found then begin
          ne_ready := max asked tk.(t_earliest + !ne_task);
          true
        end
        else false
      end
    end
  (* Schedule the master's next emission, replacing any pending one; every
     change to the queue that could alter the choice re-arms it.  Under
     faults: send now if the port is free, else wake up when a backoff
     expires (the port's completion re-arms). *)
  and arm_port () =
    incr port_epoch;
    port_arming := false;
    if next_emission (free_from port) then begin
      let t = !ne_task and rank = !ne_rank and ready = !ne_ready and date = !ne_date in
      if reserving then begin
        port_arming := true;
        pe_task := t;
        pe_rank := rank;
        pe_ready := ready;
        Engine.schedule_claimed engine date ~claim:rank
          (code ev_emit ~a:0 ~b:!port_epoch)
      end
      else if r_busy.(port) < 0 then
        if date = Engine.now engine then send t ~rank ~ready
        else Engine.schedule_at engine date (code ev_wake ~a:0 ~b:0)
    end
  and send t ~rank ~ready =
    if not pull then unqueue t
    else begin
      let e = fifo.head.(requests) in
      let v = fifo.a.(e) in
      Fifo.pop fifo requests;
      if t + 1 > !minted then incr minted else unqueue t;
      tk.(t_leg + t) <- addr.(v).leg;
      tk.(t_depth + t) <- addr.(v).depth
    end;
    incr transfers;
    tk.(o_code + t) <- Trace.Code.transfer ~leg:tk.(t_leg + t) ~hop:1;
    tk.(o_res + t) <- port;
    tk.(o_rank + t) <- rank;
    tk.(o_ready + t) <- ready;
    grant port t
  in
  let stretch r ~factor =
    let t = r_busy.(r) in
    if t >= 0 then begin
      let now = Engine.now engine in
      r_end.(r) <- now + ((r_end.(r) - now) * factor);
      let stamp = fresh () in
      tk.(o_stamp + t) <- stamp;
      Engine.schedule_at engine r_end.(r) (code ev_complete ~a:t ~b:stamp);
      if r_arming.(r) then arm r
    end
  in
  (* blind static rule when a destination dies: deepest survivor on the
     same leg, else depth 1 of the first surviving leg *)
  let master_fallback t =
    let leg = tk.(t_leg + t) in
    let a = Fault.alive_depth state ~leg in
    if a >= 1 then tk.(t_depth + t) <- min tk.(t_depth + t) a
    else begin
      let rec find l =
        if l > legs then
          invalid_arg
            (fn ^ ": fault trace leaves no processor alive while tasks remain")
        else if Fault.alive_depth state ~leg:l >= 1 then l
        else find (l + 1)
      in
      tk.(t_leg + t) <- find 1;
      tk.(t_depth + t) <- 1
    end
  in
  let return_to_master t =
    tk.(t_gen + t) <- tk.(t_gen + t) + 1;
    tk.(t_st + t) <- at_master;
    tk.(t_ncomms + t) <- 0;
    memit t Trace.Code.return;
    incr returned;
    enqueue t;
    if not pull then master_fallback t
  in
  let clamp t survive = if tk.(t_depth + t) > survive then tk.(t_depth + t) <- survive in
  let sweep_task ~leg ~survive t =
    let st = tk.(t_st + t) and on_leg = tk.(t_leg + t) = leg and k = tk.(t_k + t) in
    if st = at_master then begin
      (* pull: destinations are assigned at emission *)
      if (not pull) && on_leg && tk.(t_depth + t) > survive then master_fallback t
    end
    else if not on_leg || st = finished then ()
    else if st = emitting then begin
      if survive = 0 then return_to_master t else clamp t survive
    end
    else if st = in_transit then begin
      if k > survive then begin
        (* the transfer into [k] was aborted in the resource sweep *)
        let p = k - 1 in
        if p = 0 || p > survive then return_to_master t
        else begin
          tk.(t_st + t) <- at_node;
          tk.(t_k + t) <- p;
          tk.(t_ncomms + t) <- tk.(t_ncomms + t) - 1;
          clamp t survive;
          tk.(t_gen + t) <- tk.(t_gen + t) + 1;
          proceed t
        end
      end
      else clamp t survive
    end
    else if st = at_node then begin
      if k > survive then return_to_master t
      else if tk.(t_depth + t) > survive then begin
        clamp t survive;
        if tk.(t_depth + t) = k then begin
          (* was queued on a now-dead link; execute here instead *)
          tk.(t_gen + t) <- tk.(t_gen + t) + 1;
          proceed t
        end
      end
    end
    else (* executing on [k] *) if k > survive then return_to_master t
  in
  (* abort the in-flight operation without restarting the queue: the
     resource may just have died (its entries go stale in the task
     sweep); the task, or -1 *)
  let abort_op r =
    let t = r_busy.(r) in
    if t >= 0 then begin
      r_busy.(r) <- -1;
      tk.(o_stamp + t) <- fresh ();
      incr aborted;
      memit t (Trace.Code.abort tk.(o_code + t))
    end;
    t
  in
  let port_feeds leg = r_busy.(port) >= 0 && tk.(t_leg + r_busy.(port)) = leg in
  let crash_sweep ~leg ~survive ~old_alive =
    for k = survive + 1 to old_alive do
      ignore (abort_op (link (node ~leg ~depth:k)));
      ignore (abort_op (proc (node ~leg ~depth:k)))
    done;
    if survive = 0 && port_feeds leg then ignore (abort_op port);
    for t = 0 to n - 1 do
      sweep_task ~leg ~survive t
    done
  in
  let dest t = addr.(node ~leg:tk.(t_leg + t) ~depth:tk.(t_depth + t)) in
  let build_snapshot index at =
    let completed = ref [] and in_flight = ref [] in
    for t = n - 1 downto 0 do
      let st = tk.(t_st + t) in
      if st = finished then completed := (t + 1) :: !completed
      else if st <> at_master then in_flight := (t + 1, dest t) :: !in_flight
    done;
    {
      Fault.time = at;
      state = Fault.copy state;
      completed = !completed;
      in_flight = !in_flight;
      at_master = List.map (fun t -> (t + 1, dest t)) (queue_order ());
      remaining = drop (index + 1) faults;
    }
  in
  let apply_redirect lst =
    let ids = List.map fst lst in
    if
      List.sort compare ids
      <> List.sort compare (List.map (fun t -> t + 1) (queue_order ()))
    then
      invalid_arg
        "Msts.Netsim.replay_under_faults: Redirect must cover exactly the \
         master-resident tasks";
    List.iter
      (fun (id, (a : Spider.address)) ->
        if not (Fault.is_alive state a) then
          invalid_arg
            "Msts.Netsim.replay_under_faults: Redirect to a dead processor";
        tk.(t_leg + id - 1) <- a.leg;
        tk.(t_depth + id - 1) <- a.depth)
      lst;
    List.iter (fun t -> tk.(q_in + t) <- 0) (queue_order ());
    q_head := -1;
    q_tail := -1;
    List.iter (fun id -> q_append (id - 1)) ids
  in
  let handle_fault index =
    let { Fault.at; event } = trace.(index) in
    Obs.count "netsim.fault_events";
    (match event with
    | Fault.Slow_proc { address = { Spider.leg; depth }; factor } ->
        Fault.apply state event;
        if depth <= Fault.alive_depth state ~leg then
          stretch (proc (node ~leg ~depth)) ~factor
    | Fault.Slow_link { address = { Spider.leg; depth }; factor } ->
        Fault.apply state event;
        if depth = 1 then begin
          (* the master port is busy for hop 1 of whichever leg it feeds *)
          if port_feeds leg then stretch port ~factor
        end
        else if depth <= Fault.alive_depth state ~leg then
          stretch (link (node ~leg ~depth)) ~factor
    | Fault.Drop_transfer { address = { Spider.leg; depth }; penalty } ->
        if depth = 1 then begin
          if port_feeds leg then begin
            let t = abort_op port in
            incr retries;
            tk.(t_gen + t) <- tk.(t_gen + t) + 1;
            tk.(t_st + t) <- at_master;
            tk.(t_ncomms + t) <- 0;
            tk.(t_earliest + t) <- at + penalty;
            backoffs := true;
            enqueue t;
            (* pull mode: the requesting processor is still idle and
               waiting — its request goes back in the queue *)
            if pull then
              Fifo.push fifo requests
                (node ~leg:tk.(t_leg + t) ~depth:tk.(t_depth + t))
                (Engine.claim engine) at
          end
        end
        else begin
          let l = link (node ~leg ~depth) in
          let t = abort_op l in
          if t >= 0 then begin
            incr retries;
            tk.(t_gen + t) <- tk.(t_gen + t) + 1;
            tk.(t_st + t) <- at_node;
            tk.(t_k + t) <- depth - 1;
            tk.(t_ncomms + t) <- tk.(t_ncomms + t) - 1;
            Engine.schedule_at engine (at + penalty) (code ev_retry ~a:t ~b:tk.(t_gen + t));
            (* the link itself recovers at once: let queued users in *)
            arm l
          end
        end
    | Fault.Crash_proc { Spider.leg; depth = _ } ->
        let old_alive = Fault.alive_depth state ~leg in
        Fault.apply state event;
        let survive = Fault.alive_depth state ~leg in
        if survive < old_alive then crash_sweep ~leg ~survive ~old_alive);
    (if not pull then
       let decision =
         match !decider with
         | Keep -> Fault.Keep
         | Hook hook -> hook (build_snapshot index at)
         | Script [] -> Fault.Keep
         | Script (d :: rest) ->
             decider := Script rest;
             d
       in
       match decision with
       | Fault.Keep -> ()
       | Fault.Redirect lst -> apply_redirect lst);
    arm_port ()
  in
  let handle c =
    let kind = c land 7 and rest = c lsr 3 in
    let a = rest land ((1 lsl w) - 1) and b = rest lsr w in
    if kind = ev_complete then complete a b
    else if kind = ev_start then start_event a b
    else if kind = ev_emit then begin
      if !port_epoch = b then begin
        send !pe_task ~rank:!pe_rank ~ready:!pe_ready;
        arm_port ()
      end
    end
    else if kind = ev_wake then arm_port ()
    else if kind = ev_retry then begin
      if tk.(t_gen + a) = b then proceed a
    end
    else handle_fault a
  in
  (* Fault events are scheduled first, so at equal timestamps they fire
     before any operation: faults take effect at the start of their
     instant. *)
  Array.iteri
    (fun index { Fault.at; _ } ->
      Engine.schedule_at engine at (code ev_fault ~a:index ~b:0))
    trace;
  (match mode with
  | Plan _ ->
      let order = Array.init n Fun.id in
      let sorted = ref true in
      for t = 1 to n - 1 do
        if tk.(t_earliest + t) < tk.(t_earliest + t - 1) then sorted := false
      done;
      if not !sorted then
        Array.stable_sort
          (fun a b -> Int.compare tk.(t_earliest + a) tk.(t_earliest + b))
          order;
      Array.iter (fun t -> with_credit t ~leg:tk.(t_leg + t) ~depth:1) order
  | Pull { buffer; _ } ->
      for v = 0 to nodes - 1 do
        for _ = 1 to buffer do
          ask v
        done
      done);
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
    (fun () -> Engine.run ?max_events engine handle);
  for t = 0 to n - 1 do
    if tk.(t_st + t) <> finished then
      invalid_arg
        (fn
       ^ ": unserved tasks remain after the run (did the trace kill every \
          processor?)")
  done;
  let completions = Array.sub tk t_finish n in
  let offsets = Array.make (n + 1) 0 in
  for t = 0 to n - 1 do
    offsets.(t + 1) <- offsets.(t) + tk.(t_ncomms + t)
  done;
  let emissions = Array.make offsets.(n) 0 in
  for t = 0 to n - 1 do
    Array.blit tk (t_comms + (t * maxd)) emissions offsets.(t) tk.(t_ncomms + t)
  done;
  {
    observed =
      Spider_schedule.of_columns spider
        ~legs:(Array.sub tk t_leg n) ~starts:(Array.sub tk t_exec n) ~offsets ~emissions;
    observed_makespan = Array.fold_left max 0 completions;
    completions;
    aborted_ops = !aborted;
    returned_tasks = !returned;
    transfer_retries = !retries;
  }

(* Run a plan's routing, tasks emitted in entry order (or by [release]
   date) on [spider]. *)
let run_plan ?max_events ?buffer ?(release = fun _ -> 0) ?(trace = [])
    ?decide ~fn spider plan =
  run ?max_events ?buffer ?decide ~fn spider (Plan { plan; release }) trace

(* ---------- entry points ---------- *)

let report_of plan (r : fault_report) =
  let realized = r.observed in
  {
    realized;
    planned_makespan = Spider_schedule.makespan plan;
    realized_makespan = Spider_schedule.makespan realized;
    per_task_slack =
      Array.init (Spider_schedule.task_count plan) (fun idx ->
          Spider_schedule.start plan (idx + 1) - Spider_schedule.start realized (idx + 1));
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
       ~release:(fun t -> Spider_schedule.emission plan (t + 1) 1)
       (Spider_schedule.spider plan) plan)

let execute plan = execute_spider (Plan.to_spider plan)

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

let replay_under_faults ?max_events ?(trace = []) ?decide ?decisions plan =
  let fn = "Msts.Netsim.replay_under_faults" in
  let decide =
    match (decide, decisions) with
    | Some _, Some _ -> invalid_arg (fn ^ ": both decide and decisions given")
    | Some hook, None -> Hook hook
    | None, Some script -> Script script
    | None, None -> Keep
  in
  let spider = Spider_schedule.spider plan in
  validate fn spider trace;
  faulty_span "plan" trace @@ fun () ->
  run_plan ?max_events ~trace ~decide ~fn spider plan

let pull_under_faults ?max_events ?(trace = []) spider ~tasks =
  let fn = "Msts.Netsim.pull_under_faults" in
  if tasks < 0 then invalid_arg (fn ^ ": negative task count");
  validate fn spider trace;
  faulty_span "pull" trace @@ fun () ->
  run ?max_events ~fn spider (Pull { tasks; buffer = 1 }) trace

let pull_policy ?(buffer = 1) spider ~tasks =
  if buffer < 1 then invalid_arg "Msts.Netsim.pull_policy: buffer must be >= 1";
  if tasks < 0 then invalid_arg "Msts.Netsim.pull_policy: negative task count";
  Obs.span "netsim.pull" ~args:[ ("tasks", string_of_int tasks) ] @@ fun () ->
  (run ~fn:"Msts.Netsim.pull_policy" spider (Pull { tasks; buffer }) []).observed
