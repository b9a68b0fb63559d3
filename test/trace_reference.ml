(* The list-based trace pipeline as it stood before lib/trace/trace.ml
   moved to int columns and array state, kept as the oracle for the
   differential suite in test_trace.ml: canonical ordering by
   [List.stable_sort], the planned-trace expansion, and the invariant
   machines over [Hashtbl]s.  Beside it, [spider_check] is the
   per-leg feasibility check [Spider_schedule.check] replaced: the frozen
   Definition 1 checker ([Feasibility_oracle.check]) per leg schedule plus
   the master port's sorted intervals.  Telemetry (spans, counters) is left out. *)

open Msts.Trace
module Spider = Msts.Spider
module Chain = Msts.Chain
module Spider_schedule = Msts.Spider_schedule

let resource_of_op = function
  | Transfer { hop = 1; _ } -> Port
  | Transfer { leg; hop } -> Link { leg; hop }
  | Compute { leg; depth } -> Cpu { leg; depth }

let op_to_string = function
  | Transfer { leg; hop = 1 } -> Printf.sprintf "emission (leg %d, hop 1)" leg
  | Transfer { leg; hop } -> Printf.sprintf "transfer into node %d of leg %d" hop leg
  | Compute { leg; depth } -> Printf.sprintf "execution on node %d of leg %d" depth leg

let resource_to_string = function
  | Port -> "master port"
  | Link { leg; hop } -> Printf.sprintf "link %d of leg %d" hop leg
  | Cpu { leg; depth } -> Printf.sprintf "processor %d of leg %d" depth leg

let event_to_string e =
  let what =
    match e.kind with
    | Start op -> "starts " ^ op_to_string op
    | Finish op -> "finishes " ^ op_to_string op
    | Abort op -> "aborts " ^ op_to_string op
    | Return -> "returns to the master"
  in
  Printf.sprintf "t=%d #%d task %d %s" e.time e.seq e.task what

(* Canonical order: time, then finishes before everything else at the same
   instant (busy intervals are half-open), then emission order.  Starts,
   aborts and returns keep their relative emission order: fault handling
   legitimately grants and aborts at the same instant. *)
let rank e = match e.kind with Finish _ -> 0 | Start _ | Abort _ | Return -> 1

let compare_events a b =
  let c = Int.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare (rank a) (rank b) in
    if c <> 0 then c else Int.compare a.seq b.seq

let of_events evs = List.stable_sort compare_events evs
let split t ~at = List.partition (fun e -> e.time < at) t

let selects sel e =
  match (sel, e.kind) with
  | On_task i, _ -> e.task = i
  | _, Return -> false
  | (On_resource r, (Start op | Finish op | Abort op)) -> resource_of_op op = r
  | (On_leg l, (Start op | Finish op | Abort op)) -> (
      match op with
      | Transfer { leg; _ } | Compute { leg; _ } -> leg = l)

let project t sel = List.filter (selects sel) t

(* ---------- planned traces ---------- *)

let of_spider_schedule sched =
  let spider = Spider_schedule.spider sched in
  let seq = ref 0 in
  let acc = ref [] in
  let push time task kind =
    acc := { time; seq = !seq; task; kind } :: !acc;
    incr seq
  in
  Array.iteri
    (fun idx (e : Schedule_reference.Spider_schedule.entry) ->
      let task = idx + 1 in
      let { Spider.leg; depth } = e.address in
      let chain = Spider.leg_chain spider leg in
      for hop = 1 to depth do
        let c = Chain.latency chain hop in
        let start = e.comms.(hop - 1) in
        push start task (Start (Transfer { leg; hop }));
        push (start + c) task (Finish (Transfer { leg; hop }))
      done;
      let w = Chain.work chain depth in
      push e.start task (Start (Compute { leg; depth }));
      push (e.start + w) task (Finish (Compute { leg; depth })))
    (Schedule_reference.spider_rows sched);
  of_events !acc

(* ---------- invariants ---------- *)

module Check = struct
  type rinfo = { mutable open_ops : event list (* newest first *) }

  type tinfo = {
    mutable pos : int option;  (* hops fully received; 0 = at the master *)
    mutable tleg : int option;  (* the leg holding the task when pos >= 1 *)
    mutable in_flight : event list;  (* open Start events, newest first *)
    mutable completed : bool;
    mutable last_progress : event option;  (* what established [pos] *)
  }

  type state = {
    strict : bool;
    resources : (resource, rinfo) Hashtbl.t;
    tasks : (int, tinfo) Hashtbl.t;
  }

  let make strict =
    { strict; resources = Hashtbl.create 16; tasks = Hashtbl.create 16 }

  let strict () = make true
  let unknown () = make false

  let rinfo st r =
    match Hashtbl.find_opt st.resources r with
    | Some i -> i
    | None ->
        let i = { open_ops = [] } in
        Hashtbl.add st.resources r i;
        i

  let tinfo st task =
    match Hashtbl.find_opt st.tasks task with
    | Some i -> i
    | None ->
        let i =
          {
            pos = (if st.strict then Some 0 else None);
            tleg = None;
            in_flight = [];
            completed = false;
            last_progress = None;
          }
        in
        Hashtbl.add st.tasks task i;
        i

  let exclusivity_name = function
    | Port -> "one-port"
    | Link _ -> "link-exclusive"
    | Cpu _ -> "cpu-exclusive"

  (* Remove the open Start matching [task]/[op]; [None] when absent. *)
  let take_open task op lst =
    let rec go acc = function
      | [] -> None
      | e :: rest -> (
          match e.kind with
          | Start o when e.task = task && o = op ->
              Some (e, List.rev_append acc rest)
          | _ -> go (e :: acc) rest)
    in
    go [] lst

  let step st ev =
    let faults = ref [] in
    let flag invariant witness fmt =
      Printf.ksprintf
        (fun message -> faults := { invariant; message; witness } :: !faults)
        fmt
    in
    (match ev.kind with
    | Start op ->
        (* resource exclusivity: Definition 1 properties 3 and 4, plus the
           one-port rule across legs *)
        let r = resource_of_op op in
        let ri = rinfo st r in
        (match ri.open_ops with
        | prior :: _ ->
            flag (exclusivity_name r) [ prior; ev ]
              "tasks %d and %d overlap on the %s: %s while %s is still in \
               flight"
              prior.task ev.task (resource_to_string r) (event_to_string ev)
              (event_to_string prior)
        | [] -> ());
        ri.open_ops <- ev :: ri.open_ops;
        (* task progress: Definition 1 properties 1 and 2 *)
        let ti = tinfo st ev.task in
        if ti.completed then
          flag "task-serial" [ ev ] "task %d acts after completing: %s" ev.task
            (event_to_string ev);
        (match ti.in_flight with
        | prior :: _ ->
            flag "task-serial" [ prior; ev ]
              "task %d starts a second operation while one is in flight: %s \
               overlaps %s"
              ev.task (event_to_string ev) (event_to_string prior)
        | [] -> ());
        let need, leg, what =
          match op with
          | Transfer { leg; hop } ->
              ( hop - 1,
                leg,
                if hop = 1 then "is emitted" else "is re-emitted (forwarded)" )
          | Compute { leg; depth } -> (depth, leg, "starts executing")
        in
        (match ti.pos with
        | None -> ti.pos <- Some need
        | Some p when p <> need ->
            let basis =
              match ti.last_progress with
              | Some e -> [ e; ev ]
              | None -> [ ev ]
            in
            flag "store-and-forward" basis
              "task %d %s before being fully received: it has reached node %d \
               but %s requires node %d"
              ev.task what p (event_to_string ev) need;
            ti.pos <- Some need
        | Some _ -> ());
        (if need >= 1 then
           match ti.tleg with
           | Some l when l <> leg ->
               flag "store-and-forward"
                 (match ti.last_progress with
                 | Some e -> [ e; ev ]
                 | None -> [ ev ])
                 "task %d jumps from leg %d to leg %d without returning to \
                  the master: %s"
                 ev.task l leg (event_to_string ev)
           | _ -> ti.tleg <- Some leg);
        ti.in_flight <- ev :: ti.in_flight
    | Finish op | Abort op -> (
        let aborted = match ev.kind with Abort _ -> true | _ -> false in
        let r = resource_of_op op in
        let ri = rinfo st r in
        (match take_open ev.task op ri.open_ops with
        | Some (_, rest) -> ri.open_ops <- rest
        | None ->
            if st.strict then
              flag "pairing" [ ev ] "%s on the %s, but no matching start is \
                                     open"
                (event_to_string ev) (resource_to_string r));
        let ti = tinfo st ev.task in
        (match take_open ev.task op ti.in_flight with
        | Some (_, rest) -> ti.in_flight <- rest
        | None -> () (* the resource check above already flagged it *));
        if not aborted then
          match op with
          | Transfer { leg; hop } ->
              ti.pos <- Some hop;
              ti.tleg <- Some leg;
              ti.last_progress <- Some ev
          | Compute _ ->
              ti.completed <- true;
              ti.last_progress <- Some ev)
    | Return ->
        let ti = tinfo st ev.task in
        (match ti.in_flight with
        | prior :: _ ->
            flag "task-serial" [ prior; ev ]
              "task %d returns to the master with an operation in flight: %s"
              ev.task (event_to_string prior)
        | [] -> ());
        ti.pos <- Some 0;
        ti.tleg <- None;
        ti.in_flight <- [];
        ti.last_progress <- Some ev);
    List.rev !faults

  let segment st t =
    List.concat_map (step st) t
end

let check ?(require_nonnegative = false) t =
  let negatives =
    if require_nonnegative then
      List.filter_map
        (fun e ->
          if e.time < 0 then
            Some
              {
                invariant = "negative-date";
                message =
                  Printf.sprintf "event before time 0: %s" (event_to_string e);
                witness = [ e ];
              }
          else None)
        t
    else []
  in
  negatives @ Check.segment (Check.strict ()) t

let check_segment t = Check.segment (Check.unknown ()) t

(* What [Trace.recorded] returns for events emitted in this order: each
   numbered by its position, then sorted into the canonical order. *)
let recorded emitted = of_events (List.mapi (fun seq e -> { e with seq }) emitted)

let spider_check ?(require_nonnegative = false) t =
  let leg_reports =
    List.concat_map
      (fun l ->
        let local = Spider_schedule.leg_schedule t l in
        List.map
          (fun v ->
            Printf.sprintf "leg %d: %s" l (Feasibility_oracle.violation_to_string v))
          (Feasibility_oracle.check ~require_nonnegative local))
      (Msts.Intx.range 1 (Spider.legs (Spider_schedule.spider t)))
  in
  let port =
    List.map
      (fun i ->
        let e = Schedule_reference.spider_row t i in
        {
          Msts.Intervals.start = e.comms.(0);
          duration =
            Msts.Chain.latency
              (Spider.leg_chain (Spider_schedule.spider t) e.address.Spider.leg)
              1;
          tag = i;
        })
      (Msts.Intx.range 1 (Spider_schedule.task_count t))
  in
  let master_report =
    match Msts.Intervals.overlap_witness port with
    | Some (a, b) ->
        [
          Printf.sprintf "master port: emissions of tasks %d and %d overlap"
            a.Msts.Intervals.tag b.Msts.Intervals.tag;
        ]
    | None -> []
  in
  leg_reports @ master_report
