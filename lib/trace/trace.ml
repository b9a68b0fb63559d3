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

(* ---------- packed event codes ---------- *)

(* An operation packs as [leg lsl 21 lor pos lsl 1 lor is_compute], [pos]
   being the hop or the depth; an event's kind and operation pack as
   [op lsl 2 lor tag], with tag 0 for a finish so that the canonical rank
   of an event is [tag <> 0]. *)
module Code = struct
  let pos_bits = 20
  let pos_mask = (1 lsl pos_bits) - 1

  let pack ~leg ~pos ~compute =
    if leg < 0 || pos < 0 || pos > pos_mask then
      invalid_arg
        (Printf.sprintf "Msts.Trace: operation (leg %d, node %d) out of range"
           leg pos);
    (leg lsl (pos_bits + 1)) lor (pos lsl 1) lor compute

  let transfer ~leg ~hop = pack ~leg ~pos:hop ~compute:0
  let compute ~leg ~depth = pack ~leg ~pos:depth ~compute:1
  let finish op = op lsl 2
  let start op = (op lsl 2) lor 1
  let abort op = (op lsl 2) lor 2
  let return = 3

  let tag code = code land 3
  let op code = code lsr 2
  let is_compute op = op land 1 = 1
  let pos op = (op lsr 1) land pos_mask
  let leg op = op lsr (pos_bits + 1)
  let is_port op = op land 1 = 0 && pos op = 1

  let of_op = function
    | Transfer { leg; hop } -> transfer ~leg ~hop
    | Compute { leg; depth } -> compute ~leg ~depth

  let of_kind = function
    | Finish op -> finish (of_op op)
    | Start op -> start (of_op op)
    | Abort op -> abort (of_op op)
    | Return -> return

  let to_op op =
    if is_compute op then Compute { leg = leg op; depth = pos op }
    else Transfer { leg = leg op; hop = pos op }

  let to_kind code =
    match tag code with
    | 0 -> Finish (to_op (op code))
    | 1 -> Start (to_op (op code))
    | 2 -> Abort (to_op (op code))
    | _ -> Return
end

(* ---------- segments ---------- *)

(* Columns, read from [off] for [len] events.  A segment never mutates
   its columns, so [split] shares them. *)
type t = {
  time : int array;
  seq : int array;
  task : int array;
  code : int array;
  off : int;
  len : int;
}

let empty = { time = [||]; seq = [||]; task = [||]; code = [||]; off = 0; len = 0 }
let length t = t.len

let event_at t i =
  let j = t.off + i in
  { time = t.time.(j); seq = t.seq.(j); task = t.task.(j); kind = Code.to_kind t.code.(j) }

let events t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := event_at t i :: !acc
  done;
  !acc

(* A fresh segment of [n] zero events, for the caller to fill. *)
let create n =
  {
    time = Array.make n 0;
    seq = Array.make n 0;
    task = Array.make n 0;
    code = Array.make n 0;
    off = 0;
    len = n;
  }

let blit src i dst j =
  let i = src.off + i in
  dst.time.(j) <- src.time.(i);
  dst.seq.(j) <- src.seq.(i);
  dst.task.(j) <- src.task.(i);
  dst.code.(j) <- src.code.(i)

let rank code = if Code.tag code = 0 then 0 else 1

(* Canonical order: time, then finishes before everything else at the same
   instant (busy intervals are half-open), then emission order.  Starts,
   aborts and returns keep their relative emission order: fault handling
   legitimately grants and aborts at the same instant. *)
let canonical t =
  let perm = Array.init t.len Fun.id in
  let cmp a b =
    let a = t.off + a and b = t.off + b in
    let c = Int.compare t.time.(a) t.time.(b) in
    if c <> 0 then c
    else
      let c = Int.compare (rank t.code.(a)) (rank t.code.(b)) in
      if c <> 0 then c else Int.compare t.seq.(a) t.seq.(b)
  in
  Array.stable_sort cmp perm;
  let out = create t.len in
  Array.iteri (fun j i -> blit t i out j) perm;
  out

let concat a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else
    let a_last = a.time.(a.off + a.len - 1) and b_first = b.time.(b.off) in
    if a_last > b_first then
      invalid_arg
        (Printf.sprintf
           "Msts.Trace.concat: segments overlap in time (first ends at %d, \
            second starts at %d)"
           a_last b_first)
    else begin
      let both = create (a.len + b.len) in
      for i = 0 to a.len - 1 do
        blit a i both i
      done;
      for i = 0 to b.len - 1 do
        blit b i both (a.len + i)
      done;
      canonical both
    end

let split t ~at =
  let k = ref 0 in
  while !k < t.len && t.time.(t.off + !k) < at do
    incr k
  done;
  ({ t with len = !k }, { t with off = t.off + !k; len = t.len - !k })

type selector = On_resource of resource | On_task of int | On_leg of int

let selects sel t i =
  let j = t.off + i in
  let code = t.code.(j) in
  match sel with
  | On_task id -> t.task.(j) = id
  | _ when Code.tag code = 3 -> false
  | On_resource r -> resource_of_op (Code.to_op (Code.op code)) = r
  | On_leg l -> Code.leg (Code.op code) = l

(* The events [keep] accepts (by index), order preserved, in fresh
   columns. *)
let filter t keep =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if keep i then incr n
  done;
  let out = create !n in
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    if keep i then begin
      blit t i out !k;
      incr k
    end
  done;
  out

let project t sel = filter t (selects sel t)


(* ---------- recording ---------- *)

module Recorder = struct
  (* Columns in emission order, except that [0, sorted) has been put in
     canonical order in place and may be shared by traces already handed
     out: it is never written again. *)
  type nonrec t = {
    mutable time : int array;
    mutable seq : int array;
    mutable task : int array;
    mutable code : int array;
    mutable len : int;
    mutable sorted : int;
  }

  let create () =
    { time = [||]; seq = [||]; task = [||]; code = [||]; len = 0; sorted = 0 }

  (* Above the minor heap's size limit from the first event on, so a
     recording costs no minor words. *)
  let first_capacity = 512

  let grow r =
    let cap = max first_capacity (2 * Array.length r.time) in
    let widen a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 r.len;
      b
    in
    r.time <- widen r.time;
    r.seq <- widen r.seq;
    r.task <- widen r.task;
    r.code <- widen r.code

  let push r ~time ~task code =
    if r.len = Array.length r.time then grow r;
    let i = r.len in
    r.time.(i) <- time;
    r.seq.(i) <- i;
    r.task.(i) <- task;
    r.code.(i) <- code;
    r.len <- i + 1

  let swap_in (a : int array) i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  let swap r i j =
    swap_in r.time i j;
    swap_in r.seq i j;
    swap_in r.task i j;
    swap_in r.code i j

  (* [from, len) is in emission order with non-decreasing times: within
     each same-instant group move the finishes ahead of the rest, both
     keeping emission order. *)
  let fix_up r from =
    let i = ref from in
    while !i < r.len do
      let t = r.time.(!i) in
      let j = ref !i in
      let w = ref !i in
      while !j < r.len && r.time.(!j) = t do
        if Code.tag r.code.(!j) = 0 then begin
          for k = !j downto !w + 1 do
            swap r k (k - 1)
          done;
          incr w
        end;
        incr j
      done;
      i := !j
    done

  (* The events since [sorted] are in time order and start after the
     sorted prefix's last instant, so fixing them up cannot touch it. *)
  let appended_in_time_order r =
    let ok =
      ref
        (r.sorted = 0 || r.len = r.sorted
        || r.time.(r.sorted) > r.time.(r.sorted - 1))
    in
    let i = ref (r.sorted + 1) in
    while !ok && !i < r.len do
      if r.time.(!i) < r.time.(!i - 1) then ok := false;
      incr i
    done;
    !ok

  let view r =
    { time = r.time; seq = r.seq; task = r.task; code = r.code; off = 0; len = r.len }
end

let the_recorder : Recorder.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* [trace.events] is emitted once per installation, as the number of
   events recorded meanwhile, instead of once per [emit]. *)
let with_recorder (r : Recorder.t) f =
  let saved = Domain.DLS.get the_recorder in
  let before = r.len in
  Domain.DLS.set the_recorder (Some r);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set the_recorder saved;
      let n = r.len - before in
      if n > 0 then Obs.count ~n "trace.events")
    f

let without_recorder f =
  (* With no recorder installed there is nothing to hide or restore, so
     the common path allocates nothing (no closure, no protect). *)
  match Domain.DLS.get the_recorder with
  | None -> f ()
  | Some _ as saved ->
      Domain.DLS.set the_recorder None;
      Fun.protect ~finally:(fun () -> Domain.DLS.set the_recorder saved) f

let recording () = Option.is_some (Domain.DLS.get the_recorder)

let emit_code ~time ~task code =
  match Domain.DLS.get the_recorder with
  | None -> ()
  | Some r -> Recorder.push r ~time ~task code

let emit ~time ~task kind =
  match Domain.DLS.get the_recorder with
  | None -> ()
  | Some r -> Recorder.push r ~time ~task (Code.of_kind kind)

(* The simulator emits in time order, so the events appended since the
   last call need only the same-instant fix-up, done in place; anything
   else (events emitted out of time order) is copied and sorted. *)
let recorded (r : Recorder.t) =
  if Recorder.appended_in_time_order r then begin
    Recorder.fix_up r r.sorted;
    r.sorted <- r.len;
    Recorder.view r
  end
  else canonical (Recorder.view r)

(* ---------- planned traces ---------- *)

let of_spider_schedule sched =
  let spider = Spider_schedule.spider sched in
  let tasks = Spider_schedule.task_count sched in
  let n = ref 0 in
  for i = 1 to tasks do
    n := !n + (2 * (Spider_schedule.depth sched i + 1))
  done;
  let n = !n in
  (* emission order: each task's hops, then its execution *)
  let raw = create n in
  let k = ref 0 in
  let push time task code =
    raw.time.(!k) <- time;
    raw.seq.(!k) <- !k;
    raw.task.(!k) <- task;
    raw.code.(!k) <- code;
    incr k
  in
  for idx = 0 to tasks - 1 do
    let task = idx + 1 in
    let leg = Spider_schedule.leg sched task and depth = Spider_schedule.depth sched task in
    let chain = Spider.leg_chain spider leg in
    for hop = 1 to depth do
      let c = Chain.latency chain hop in
      let start = Spider_schedule.emission sched task hop in
      let op = Code.transfer ~leg ~hop in
      push start task (Code.start op);
      push (start + c) task (Code.finish op)
    done;
    let op = Code.compute ~leg ~depth in
    let start = Spider_schedule.start sched task in
    push start task (Code.start op);
    push (start + Chain.work chain depth) task (Code.finish op)
  done;
  (* Sort packed keys (time, rank, emission index) when they fit in an
     int, which they do for any schedule of sane size and horizon. *)
  let tmin = ref max_int and tmax = ref min_int in
  for i = 0 to n - 1 do
    let x = raw.time.(i) in
    if x < !tmin then tmin := x;
    if x > !tmax then tmax := x
  done;
  let bits =
    let b = ref 1 in
    while 1 lsl !b < n do
      incr b
    done;
    !b
  in
  if n = 0 then empty
  else if !tmax - !tmin >= 1 lsl (Sys.int_size - 3 - bits) then canonical raw
  else begin
    let tmin = !tmin in
    let keys = Array.make n 0 in
    for i = 0 to n - 1 do
      keys.(i) <- ((((raw.time.(i) - tmin) lsl 1) lor rank raw.code.(i)) lsl bits) lor i
    done;
    Msts_util.Intx.sort_sub keys ~pos:0 ~len:n;
    let out = create n in
    let mask = (1 lsl bits) - 1 in
    for j = 0 to n - 1 do
      blit raw (keys.(j) land mask) out j
    done;
    out
  end

let of_plan plan = of_spider_schedule (Plan.to_spider plan)

(* ---------- invariants ---------- *)

type violation = { invariant : string; message : string; witness : event list }

let explain v = Printf.sprintf "%s violated: %s" v.invariant v.message

module Check = struct
  (* Dense slots for int keys: a direct table for small keys (task ids,
     packed resources), a hash table for the rest. *)
  module Slots = struct
    type t = {
      mutable direct : int array; (* key -> slot, -1 when unseen *)
      sparse : (int, int) Hashtbl.t;
      mutable keys : int array; (* slot -> key *)
      mutable count : int;
    }

    let direct_limit = 1 lsl 18

    let create () =
      { direct = [||]; sparse = Hashtbl.create 1; keys = [||]; count = 0 }

    (* Forget every key, keeping the tables. *)
    let reset t =
      for s = 0 to t.count - 1 do
        let key = t.keys.(s) in
        if key >= 0 && key < direct_limit then t.direct.(key) <- -1
      done;
      if Hashtbl.length t.sparse > 0 then Hashtbl.reset t.sparse;
      t.count <- 0

    (* The slot of [key], or -1 before its first contact. *)
    let find t key =
      if key >= 0 && key < direct_limit then
        if key < Array.length t.direct then t.direct.(key) else -1
      else match Hashtbl.find_opt t.sparse key with Some s -> s | None -> -1

    (* Assign the next slot to a key [find] does not know. *)
    let add t key =
      let s = t.count in
      t.count <- s + 1;
      if s = Array.length t.keys then begin
        let k = Array.make (max 16 (2 * s)) 0 in
        Array.blit t.keys 0 k 0 s;
        t.keys <- k
      end;
      t.keys.(s) <- key;
      if key >= 0 && key < direct_limit then begin
        if key >= Array.length t.direct then begin
          let cap = ref (max 16 (Array.length t.direct)) in
          while !cap <= key do
            cap := 2 * !cap
          done;
          let d = Array.make (min !cap direct_limit) (-1) in
          Array.blit t.direct 0 d 0 (Array.length t.direct);
          t.direct <- d
        end;
        t.direct.(key) <- s
      end
      else Hashtbl.add t.sparse key s;
      s
  end

  let none = min_int

  (* Open Start events live in a node pool: per-resource lists of open
     operations and per-task lists of operations in flight, newest
     first, linked through [next]; -1 ends a list. *)
  type state = {
    strict : bool;
    res : Slots.t;
    mutable r_open : int array; (* list head per resource slot *)
    tasks : Slots.t;
    mutable t_pos : int array; (* hops fully received, [none] unknown *)
    mutable t_leg : int array; (* leg holding the task, [none] unknown *)
    mutable t_flight : int array; (* list head per task slot *)
    mutable t_done : int array; (* 1 once completed *)
    mutable t_last : int array; (* node of what established [pos], or -1 *)
    (* the pool *)
    mutable n_time : int array;
    mutable n_seq : int array;
    mutable n_task : int array;
    mutable n_code : int array;
    mutable n_next : int array;
    mutable n_used : int;
    mutable n_free : int;
    mutable found : bool; (* [take_open]'s second answer *)
  }

  let make strict =
    {
      strict;
      res = Slots.create ();
      r_open = [||];
      tasks = Slots.create ();
      t_pos = [||];
      t_leg = [||];
      t_flight = [||];
      t_done = [||];
      t_last = [||];
      n_time = [||];
      n_seq = [||];
      n_task = [||];
      n_code = [||];
      n_next = [||];
      n_used = 0;
      n_free = -1;
      found = false;
    }

  let strict () = make true
  let unknown () = make false

  (* A strict state per domain, reset and reused by {!check}: a whole-
     trace audit then allocates nothing once the scratch has grown.
     [busy] covers a check that starts while another runs on the same
     domain; it gets a fresh state. *)
  type scratch = { st : state; mutable busy : bool }

  let scratch_key = Domain.DLS.new_key (fun () -> { st = make true; busy = false })

  let reset st =
    Slots.reset st.res;
    Slots.reset st.tasks;
    st.n_used <- 0;
    st.n_free <- -1

  let widen a n fill =
    if n <= Array.length a then a
    else begin
      let b = Array.make (max n (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let res_slot st key =
    let s = Slots.find st.res key in
    if s >= 0 then s
    else begin
      let s = Slots.add st.res key in
      st.r_open <- widen st.r_open (s + 1) (-1);
      st.r_open.(s) <- -1;
      s
    end

  let task_slot st id =
    let s = Slots.find st.tasks id in
    if s >= 0 then s
    else begin
      let s = Slots.add st.tasks id in
      st.t_pos <- widen st.t_pos (s + 1) none;
      st.t_leg <- widen st.t_leg (s + 1) none;
      st.t_flight <- widen st.t_flight (s + 1) (-1);
      st.t_last <- widen st.t_last (s + 1) (-1);
      st.t_done <- widen st.t_done (s + 1) 0;
      st.t_pos.(s) <- (if st.strict then 0 else none);
      st.t_leg.(s) <- none;
      st.t_flight.(s) <- -1;
      st.t_last.(s) <- -1;
      st.t_done.(s) <- 0;
      s
    end

  let node st ~time ~seq ~task ~code ~next =
    let i =
      if st.n_free >= 0 then begin
        let i = st.n_free in
        st.n_free <- st.n_next.(i);
        i
      end
      else begin
        let i = st.n_used in
        if i = Array.length st.n_time then begin
          let n = i + 1 in
          st.n_time <- widen st.n_time n 0;
          st.n_seq <- widen st.n_seq n 0;
          st.n_task <- widen st.n_task n 0;
          st.n_code <- widen st.n_code n 0;
          st.n_next <- widen st.n_next n 0
        end;
        st.n_used <- i + 1;
        i
      end
    in
    st.n_time.(i) <- time;
    st.n_seq.(i) <- seq;
    st.n_task.(i) <- task;
    st.n_code.(i) <- code;
    st.n_next.(i) <- next;
    i

  let release st i =
    st.n_next.(i) <- st.n_free;
    st.n_free <- i

  (* [t_last] nodes are owned by their task: a copy, never on a list. *)
  let set_last st s ~time ~seq ~task ~code =
    if st.t_last.(s) >= 0 then release st st.t_last.(s);
    st.t_last.(s) <- node st ~time ~seq ~task ~code ~next:(-1)

  let event_of st i =
    {
      time = st.n_time.(i);
      seq = st.n_seq.(i);
      task = st.n_task.(i);
      kind = Code.to_kind st.n_code.(i);
    }

  (* Unlink and release the newest node of list [head] holding a start of
     [op] by [task]; the new head.  [found] tells whether there was one. *)
  let take_open st head ~task ~op =
    let start = Code.start op in
    let prev = ref (-1) and i = ref head in
    while !i >= 0 && not (st.n_task.(!i) = task && st.n_code.(!i) = start) do
      prev := !i;
      i := st.n_next.(!i)
    done;
    let i = !i in
    st.found <- i >= 0;
    if i < 0 then head
    else begin
      let next = st.n_next.(i) in
      release st i;
      if !prev < 0 then next
      else begin
        st.n_next.(!prev) <- next;
        head
      end
    end

  let free_list st head =
    let i = ref head in
    while !i >= 0 do
      let next = st.n_next.(!i) in
      release st !i;
      i := next
    done

  (* Szudzik's pairing keeps small legs and depths on small keys. *)
  let resource_key op =
    if Code.is_port op then 0
    else
      let a = Code.leg op and b = Code.pos op in
      let pair = if a >= b then (a * a) + a + b else a + (b * b) in
      1 + (2 * pair) + (op land 1)

  let exclusivity_name op =
    if Code.is_port op then "one-port"
    else if Code.is_compute op then "cpu-exclusive"
    else "link-exclusive"

  let flag acc invariant witness message = { invariant; message; witness } :: acc

  (* The witness of a progress violation: what established the task's
     position, then the offending event. *)
  let basis st s t i =
    let ev = event_at t i in
    if st.t_last.(s) >= 0 then [ event_of st st.t_last.(s); ev ] else [ ev ]

  (* One event; violations are consed onto [acc] newest first. *)
  let step st acc t i =
    let j = t.off + i in
    let time = t.time.(j) and seq = t.seq.(j) and task = t.task.(j)
    and code = t.code.(j) in
    let acc = ref acc in
    let tag = Code.tag code in
    if tag = 1 then begin
      let op = Code.op code in
      (* resource exclusivity: Definition 1 properties 3 and 4, plus the
         one-port rule across legs *)
      let r = res_slot st (resource_key op) in
      let prior = st.r_open.(r) in
      if prior >= 0 then begin
        let prior = event_of st prior and ev = event_at t i in
        let res = resource_of_op (Code.to_op op) in
        acc :=
          flag !acc (exclusivity_name op) [ prior; ev ]
            (Printf.sprintf
               "tasks %d and %d overlap on the %s: %s while %s is still in \
                flight"
               prior.task ev.task (resource_to_string res) (event_to_string ev)
               (event_to_string prior))
      end;
      st.r_open.(r) <- node st ~time ~seq ~task ~code ~next:st.r_open.(r);
      (* task progress: Definition 1 properties 1 and 2 *)
      let s = task_slot st task in
      if st.t_done.(s) = 1 then begin
        let ev = event_at t i in
        acc :=
          flag !acc "task-serial" [ ev ]
            (Printf.sprintf "task %d acts after completing: %s" task
               (event_to_string ev))
      end;
      let flying = st.t_flight.(s) in
      if flying >= 0 then begin
        let prior = event_of st flying and ev = event_at t i in
        acc :=
          flag !acc "task-serial" [ prior; ev ]
            (Printf.sprintf
               "task %d starts a second operation while one is in flight: %s \
                overlaps %s"
               task (event_to_string ev) (event_to_string prior))
      end;
      let leg = Code.leg op in
      let need = if Code.is_compute op then Code.pos op else Code.pos op - 1 in
      let p = st.t_pos.(s) in
      if p = none then st.t_pos.(s) <- need
      else if p <> need then begin
        let what =
          if Code.is_compute op then "starts executing"
          else if Code.pos op = 1 then "is emitted"
          else "is re-emitted (forwarded)"
        in
        let basis = basis st s t i in
        acc :=
          flag !acc "store-and-forward" basis
            (Printf.sprintf
               "task %d %s before being fully received: it has reached node \
                %d but %s requires node %d"
               task what p (event_to_string (event_at t i)) need);
        st.t_pos.(s) <- need
      end;
      if need >= 1 then begin
        let l = st.t_leg.(s) in
        if l <> none && l <> leg then
          acc :=
            flag !acc "store-and-forward" (basis st s t i)
              (Printf.sprintf
                 "task %d jumps from leg %d to leg %d without returning to \
                  the master: %s"
                 task l leg (event_to_string (event_at t i)))
        else if l = none then st.t_leg.(s) <- leg
      end;
      st.t_flight.(s) <- node st ~time ~seq ~task ~code ~next:st.t_flight.(s)
    end
    else if tag = 3 then begin
      let s = task_slot st task in
      let flying = st.t_flight.(s) in
      if flying >= 0 then begin
        let prior = event_of st flying in
        acc :=
          flag !acc "task-serial" [ prior; event_at t i ]
            (Printf.sprintf
               "task %d returns to the master with an operation in flight: %s"
               task (event_to_string prior))
      end;
      st.t_pos.(s) <- 0;
      st.t_leg.(s) <- none;
      free_list st flying;
      st.t_flight.(s) <- -1;
      set_last st s ~time ~seq ~task ~code
    end
    else begin
      (* a finish (tag 0) or an abort (tag 2) *)
      let op = Code.op code in
      let r = res_slot st (resource_key op) in
      st.r_open.(r) <- take_open st st.r_open.(r) ~task ~op;
      if (not st.found) && st.strict then begin
        let ev = event_at t i in
        acc :=
          flag !acc "pairing" [ ev ]
            (Printf.sprintf "%s on the %s, but no matching start is open"
               (event_to_string ev)
               (resource_to_string (resource_of_op (Code.to_op op))))
      end;
      let s = task_slot st task in
      (* a missing in-flight entry was flagged by the resource check *)
      st.t_flight.(s) <- take_open st st.t_flight.(s) ~task ~op;
      if tag = 0 then begin
        if not (Code.is_compute op) then begin
          st.t_pos.(s) <- Code.pos op;
          st.t_leg.(s) <- Code.leg op
        end
        else st.t_done.(s) <- 1;
        set_last st s ~time ~seq ~task ~code
      end
    end;
    !acc

  let run st t =
    let acc = ref [] in
    for i = 0 to t.len - 1 do
      acc := step st !acc t i
    done;
    List.rev !acc

  let segment st t =
    Obs.count "trace.segments_checked";
    run st t

  let whole t =
    let scratch = Domain.DLS.get scratch_key in
    if scratch.busy then segment (strict ()) t
    else begin
      scratch.busy <- true;
      reset scratch.st;
      let found = segment scratch.st t in
      scratch.busy <- false;
      found
    end
end

let check ?(require_nonnegative = false) t =
  Obs.span "trace.check" ~args:[ ("events", string_of_int t.len) ] @@ fun () ->
  let negatives =
    if not require_nonnegative then []
    else begin
      let acc = ref [] in
      for i = t.len - 1 downto 0 do
        if t.time.(t.off + i) < 0 then begin
          let e = event_at t i in
          acc :=
            {
              invariant = "negative-date";
              message = Printf.sprintf "event before time 0: %s" (event_to_string e);
              witness = [ e ];
            }
            :: !acc
        end
      done;
      !acc
    end
  in
  let faults =
    match Check.whole t with
    | [] -> negatives
    | found -> negatives @ found
  in
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
      let key (e : event) = (e.time, e.seq) in
      let keys = List.map key v.witness in
      let lo = List.fold_left min (List.hd keys) (List.tl keys) in
      let hi = List.fold_left max (List.hd keys) (List.tl keys) in
      filter proj (fun i ->
          let k = (proj.time.(proj.off + i), proj.seq.(proj.off + i)) in
          k >= lo && k <= hi)

let report t = function
  | [] -> "all invariants hold"
  | faults ->
      let one v =
        let seg = localize t v in
        let seg_txt =
          if seg.len = 0 then "  (no localizable segment)"
          else
            String.concat "\n"
              (List.map (fun e -> "  | " ^ event_to_string e) (events seg))
        in
        explain v ^ "\n" ^ seg_txt
      in
      Printf.sprintf "%d invariant violation(s):\n%s" (List.length faults)
        (String.concat "\n" (List.map one faults))
