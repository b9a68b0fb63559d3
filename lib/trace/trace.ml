module Obs = Msts_obs.Obs
module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Spider_schedule = Msts_schedule.Spider_schedule
module Plan = Msts_schedule.Plan

type op =
  | Transfer of { leg : int; hop : int }
  | Compute of { leg : int; depth : int }

type resource =
  | Port
  | Link of { leg : int; hop : int }
  | Cpu of { leg : int; depth : int }

let resource_of_op = function
  | Transfer { hop = 1; _ } -> Port
  | Transfer { leg; hop } -> Link { leg; hop }
  | Compute { leg; depth } -> Cpu { leg; depth }

type kind = Start of op | Finish of op | Abort of op | Return

type event = { time : int; seq : int; task : int; kind : kind }

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

type t = event list

let of_events evs = List.stable_sort compare_events evs
let events t = t
let length = List.length
let empty = []

let time_span = function
  | [] -> None
  | first :: _ as evs ->
      let last = List.fold_left (fun _ e -> e.time) first.time evs in
      Some (first.time, last)

let concat a b =
  match (time_span a, time_span b) with
  | None, _ -> b
  | _, None -> a
  | Some (_, a_last), Some (b_first, _) ->
      if a_last > b_first then
        invalid_arg
          (Printf.sprintf
             "Msts.Trace.concat: segments overlap in time (first ends at %d, \
              second starts at %d)"
             a_last b_first)
      else of_events (a @ b)

let split t ~at = List.partition (fun e -> e.time < at) t

type selector = On_resource of resource | On_task of int | On_leg of int

let selects sel e =
  match (sel, e.kind) with
  | On_task i, _ -> e.task = i
  | _, Return -> false
  | (On_resource r, (Start op | Finish op | Abort op)) -> resource_of_op op = r
  | (On_leg l, (Start op | Finish op | Abort op)) -> (
      match op with
      | Transfer { leg; _ } | Compute { leg; _ } -> leg = l)

let project t sel = List.filter (selects sel) t

let to_string t = String.concat "\n" (List.map event_to_string t)

(* ---------- recording ---------- *)

module Recorder = struct
  type t = { mutable rev : event list; mutable next_seq : int }

  let create () = { rev = []; next_seq = 0 }
end

let the_recorder : Recorder.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* [trace.events] is emitted once per installation, as the number of
   events recorded meanwhile, instead of once per [emit]. *)
let with_recorder (r : Recorder.t) f =
  let saved = Domain.DLS.get the_recorder in
  let before = r.next_seq in
  Domain.DLS.set the_recorder (Some r);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set the_recorder saved;
      let n = r.next_seq - before in
      if n > 0 then Obs.count ~n "trace.events")
    f

let recording () = Option.is_some (Domain.DLS.get the_recorder)

let emit ~time ~task kind =
  match Domain.DLS.get the_recorder with
  | None -> ()
  | Some r ->
      r.rev <- { time; seq = r.next_seq; task; kind } :: r.rev;
      r.next_seq <- r.next_seq + 1

let recorded (r : Recorder.t) = of_events (List.rev r.rev)

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
    (fun idx (e : Spider_schedule.entry) ->
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
    (Spider_schedule.entries sched);
  of_events !acc

let of_chain_schedule sched =
  of_spider_schedule (Spider_schedule.of_chain_schedule sched)

let of_plan = function
  | Plan.Spider p -> of_spider_schedule p
  | Plan.Chain p -> of_chain_schedule p

(* ---------- invariants ---------- *)

type violation = { invariant : string; message : string; witness : event list }

let explain v = Printf.sprintf "%s violated: %s" v.invariant v.message

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
    Obs.count "trace.segments_checked";
    List.concat_map (step st) t
end

let check ?(require_nonnegative = false) t =
  Obs.span "trace.check" ~args:[ ("events", string_of_int (List.length t)) ]
  @@ fun () ->
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
  let faults = negatives @ Check.segment (Check.strict ()) t in
  if faults <> [] then Obs.count ~n:(List.length faults) "trace.violations";
  faults

let check_segment t = Check.segment (Check.unknown ()) t

let localize t v =
  match v.witness with
  | [] -> empty
  | first :: _ ->
      let sel =
        let by_resource op = On_resource (resource_of_op op) in
        match v.invariant with
        | "one-port" | "link-exclusive" | "cpu-exclusive" | "pairing" -> (
            match first.kind with
            | Start op | Finish op | Abort op -> by_resource op
            | Return -> On_task first.task)
        | _ -> On_task (List.nth v.witness (List.length v.witness - 1)).task
      in
      let proj = project t sel in
      let key e = (e.time, e.seq) in
      let keys = List.map key v.witness in
      let lo = List.fold_left min (List.hd keys) (List.tl keys) in
      let hi = List.fold_left max (List.hd keys) (List.tl keys) in
      List.filter (fun e -> key e >= lo && key e <= hi) proj

let report t = function
  | [] -> "all invariants hold"
  | faults ->
      let one v =
        let seg = localize t v in
        let seg_txt =
          if seg = [] then "  (no localizable segment)"
          else
            String.concat "\n"
              (List.map (fun e -> "  | " ^ event_to_string e) seg)
        in
        explain v ^ "\n" ^ seg_txt
      in
      Printf.sprintf "%d invariant violation(s):\n%s" (List.length faults)
        (String.concat "\n" (List.map one faults))
