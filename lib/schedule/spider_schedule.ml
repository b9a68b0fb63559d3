module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain

type t = { spider : Spider.t; cols : Columns.t }

(* The columns' shape, then every task's leg and depth within the spider
   (a depth of at least 1 everywhere also orders the offsets).  A one-leg
   spider keeps no leg column. *)
let checked ~who spider ~legs ~starts ~offsets ~emissions =
  let cols = Columns.make ~who ~legs ~starts ~offsets ~emissions in
  for idx = 0 to Columns.length cols - 1 do
    let leg = Columns.leg cols idx and depth = Columns.depth cols idx in
    if leg < 1 || leg > Spider.legs spider then
      invalid_arg (Printf.sprintf "%s: task %d on leg %d" who (idx + 1) leg);
    if depth < 1 || depth > Chain.length (Spider.leg_chain spider leg) then
      invalid_arg (Printf.sprintf "%s: task %d at depth %d on leg %d" who (idx + 1) depth leg)
  done;
  { spider; cols = (if Spider.legs spider = 1 then Columns.on_leg_one cols else cols) }

let of_columns spider ~legs ~starts ~offsets ~emissions =
  let who = "Spider_schedule.of_columns" in
  if Array.length legs <> Array.length starts then
    invalid_arg
      (Printf.sprintf "%s: %d legs for %d starts" who (Array.length legs)
         (Array.length starts));
  checked ~who spider ~legs ~starts ~offsets ~emissions

(* The derived columns are checked as a producer's are. *)
let rechecked ~who spider (c : Columns.t) =
  checked ~who spider ~legs:c.legs ~starts:c.starts ~offsets:c.offsets ~emissions:c.emissions

let spider t = t.spider
let columns t = t.cols

let task_count t = Columns.length t.cols

(* The accessors below are inlined into their callers' loops; the
   failure path is not. *)
let[@inline never] no_task t i name =
  invalid_arg (Printf.sprintf "Spider_schedule.%s: task %d outside 1..%d" name i (task_count t))

let[@inline] check_task t i name = if i < 1 || i > task_count t then no_task t i name

let[@inline] leg t i =
  check_task t i "leg";
  Columns.leg t.cols (i - 1)

let[@inline] depth t i =
  check_task t i "depth";
  Columns.depth t.cols (i - 1)

let[@inline] start t i =
  check_task t i "start";
  t.cols.starts.(i - 1)

let[@inline] emission t i k =
  check_task t i "emission";
  Columns.emission ~who:"Spider_schedule.emission" t.cols (i - 1) k

(* A loop, not a fold: a closure over [t] would cost words per call. *)
let makespan t =
  let m = ref 0 and c = t.cols in
  for i = 0 to Columns.length c - 1 do
    let finish =
      c.starts.(i) + Chain.work (Spider.leg_chain t.spider (Columns.leg c i)) (Columns.depth c i)
    in
    if finish > !m then m := finish
  done;
  !m

let tasks_on_leg t l =
  let c = t.cols in
  let keyed =
    List.filter_map
      (fun idx ->
        if Columns.leg c idx = l then Some (c.emissions.(c.offsets.(idx)), idx + 1)
        else None)
      (List.init (task_count t) Fun.id)
  in
  List.map snd (List.sort compare keyed)

let leg_schedule t l =
  let chain = Spider.leg_chain t.spider l in
  let c = Columns.filter t.cols ~keep:(fun i -> Columns.leg t.cols (i - 1) = l) in
  Schedule.of_columns chain ~starts:c.starts ~offsets:c.offsets ~emissions:c.emissions

(* The resources [overlap] scans: link [k] of a leg, processor [k] of a
   leg, the master's port. *)
let on_link = 0
let on_proc = 1
let on_port = 2

(* The first consecutive pair, in (date, tag) order, of overlapping busy
   intervals on one resource, as its tags packed [a * (n + 1) + b]; -1
   when there is none.  The candidates are [by_leg.(lo .. hi-1)] tagged by
   their rank in the leg (1, 2, ...), or for the port every task tagged by
   its index.  Each date is packed with its tag into one int of [keys],
   which are then heapsorted; dates spread too wide to pack are sorted as
   pairs instead. *)
let uses ~kind ~k c x =
  kind = on_port || if kind = on_link then Columns.depth c x >= k else Columns.depth c x = k

let date ~kind ~k (c : Columns.t) x =
  if kind = on_proc then c.starts.(x) else c.emissions.(c.offsets.(x) + k - 1)

(* The candidate at position [p], and its tag. *)
let task_at ~kind ~by_leg p = if kind = on_port then p else by_leg.(p)
let tag_at ~kind ~lo p = if kind = on_port then p + 1 else p - lo + 1

let duration t ~kind ~k ~by_leg ~lo tag =
  let x = if kind = on_port then tag - 1 else by_leg.(lo + tag - 1) in
  let chain = Spider.leg_chain t.spider (Columns.leg t.cols x) in
  if kind = on_proc then Chain.work chain k else Chain.latency chain k

let overlap t ~by_leg ~keys ~lo ~hi ~kind ~k =
  let c = t.cols and n = Columns.length t.cols in
  let m = ref 0 and dmin = ref max_int and dmax = ref min_int in
  for p = lo to hi - 1 do
    let x = task_at ~kind ~by_leg p in
    if uses ~kind ~k c x then begin
      let d = date ~kind ~k c x in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d;
      incr m
    end
  done;
  let m = !m and dmin = !dmin in
  let bits = ref 1 in
  while 1 lsl !bits <= n do
    incr bits
  done;
  let bits = !bits in
  let mask = (1 lsl bits) - 1 in
  let packable = m < 2 || !dmax - dmin < 1 lsl (Sys.int_size - 2 - bits) in
  let sorted =
    if packable then begin
      let j = ref 0 in
      for p = lo to hi - 1 do
        let x = task_at ~kind ~by_leg p in
        if uses ~kind ~k c x then begin
          keys.(!j) <- ((date ~kind ~k c x - dmin) lsl bits) lor tag_at ~kind ~lo p;
          incr j
        end
      done;
      Msts_util.Intx.sort_sub keys ~pos:0 ~len:m;
      [||]
    end
    else begin
      let pairs = ref [] in
      for p = hi - 1 downto lo do
        let x = task_at ~kind ~by_leg p in
        if uses ~kind ~k c x then pairs := (date ~kind ~k c x, tag_at ~kind ~lo p) :: !pairs
      done;
      Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !pairs)
    end
  in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i + 1 < m do
    let a, b, sa, sb =
      if packable then
        ( keys.(!i) land mask,
          keys.(!i + 1) land mask,
          (keys.(!i) lsr bits) + dmin,
          (keys.(!i + 1) lsr bits) + dmin )
      else
        (snd sorted.(!i), snd sorted.(!i + 1), fst sorted.(!i), fst sorted.(!i + 1))
    in
    let da = duration t ~kind ~k ~by_leg ~lo a
    and db = duration t ~kind ~k ~by_leg ~lo b in
    if da > 0 && db > 0 && sa + da > sb then found := (a * (n + 1)) + b;
    incr i
  done;
  !found

let negative (c : Columns.t) x =
  let neg = ref (c.starts.(x) < 0) in
  for j = c.offsets.(x) to c.offsets.(x + 1) - 1 do
    if c.emissions.(j) < 0 then neg := true
  done;
  !neg

(* Definition 1 per leg, then the master's one-port rule, in one pass over
   interval keys: the tasks are grouped by leg (task order kept, and
   numbered within the leg as the leg's chain schedule would), and every
   resource's intervals are packed into one scratch array, sorted and
   scanned for the first overlapping neighbours.  Per leg the violations
   come negative dates first, then properties 1 and 2 task by task, then
   link and processor overlaps resource by resource.  Messages are built
   only for violations. *)
let violations ?(require_nonnegative = false) t =
  let spider = t.spider and c = t.cols in
  let n = Columns.length c and legs = Spider.legs spider in
  let first = Array.make (legs + 2) 0 in
  for i = 0 to n - 1 do
    let l = Columns.leg c i in
    first.(l + 1) <- first.(l + 1) + 1
  done;
  for l = 1 to legs + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  (* by_leg.(first.(l) .. first.(l+1) - 1): leg [l]'s tasks, task order *)
  let by_leg = Array.make n 0 in
  for i = 0 to n - 1 do
    let l = Columns.leg c i in
    by_leg.(first.(l)) <- i;
    first.(l) <- first.(l) + 1
  done;
  for l = legs downto 1 do
    first.(l) <- first.(l - 1)
  done;
  first.(0) <- 0;
  let keys = Array.make n 0 in
  let out = ref [] in
  let flag l msg = out := (l, msg) :: !out in
  for l = 1 to legs do
    let chain = Spider.leg_chain spider l in
    let lo = first.(l) and hi = first.(l + 1) in
    if require_nonnegative then
      for p = lo to hi - 1 do
        if negative c by_leg.(p) then
          flag l (Printf.sprintf "task %d has a date before time 0" (p - lo + 1))
      done;
    (* properties 1 and 2, one task at a time *)
    for p = lo to hi - 1 do
      let x = by_leg.(p) and task = p - lo + 1 in
      let depth = Columns.depth c x and o = c.offsets.(x) in
      for k = 2 to depth do
        if c.emissions.(o + k - 2) + Chain.latency chain (k - 1) > c.emissions.(o + k - 1)
        then
          flag l
            (Printf.sprintf
               "task %d re-emitted on link %d before its reception completed" task k)
      done;
      if c.emissions.(o + depth - 1) + Chain.latency chain depth > c.starts.(x) then
        flag l (Printf.sprintf "task %d starts before it is fully received" task)
    done;
    (* properties 3 and 4: all intervals on a resource have the same
       duration, so disjointness is consecutive disjointness in start
       order *)
    for k = 1 to Chain.length chain do
      let hit = overlap t ~by_leg ~keys ~lo ~hi ~kind:on_link ~k in
      if hit >= 0 then
        flag l
          (Printf.sprintf "transfers of tasks %d and %d overlap on link %d"
             (hit / (n + 1)) (hit mod (n + 1)) k);
      let hit = overlap t ~by_leg ~keys ~lo ~hi ~kind:on_proc ~k in
      if hit >= 0 then
        flag l
          (Printf.sprintf "tasks %d and %d overlap on processor %d" (hit / (n + 1))
             (hit mod (n + 1)) k)
    done
  done;
  (* the master port: hop-1 durations differ across legs, so each pair
     is tested with its own *)
  let hit = overlap t ~by_leg ~keys ~lo:0 ~hi:n ~kind:on_port ~k:1 in
  if hit >= 0 then
    flag 0
      (Printf.sprintf "emissions of tasks %d and %d overlap" (hit / (n + 1))
         (hit mod (n + 1)));
  List.rev !out

let check ?require_nonnegative t =
  List.map
    (fun (l, msg) ->
      if l = 0 then "master port: " ^ msg else Printf.sprintf "leg %d: %s" l msg)
    (violations ?require_nonnegative t)

let is_feasible ?require_nonnegative t = check ?require_nonnegative t = []

let meets_deadline t ~deadline =
  is_feasible ~require_nonnegative:true t && makespan t <= deadline

let shift t ~delta =
  let c = t.cols in
  if Array.exists (fun d -> d + delta < 0) c.starts
     || Array.exists (fun d -> d + delta < 0) c.emissions
  then invalid_arg "Spider_schedule.shift: negative date after shift";
  { t with cols = Columns.shift c ~delta }

let filter_tasks t ~keep =
  rechecked ~who:"Spider_schedule.filter_tasks" t.spider (Columns.filter t.cols ~keep)

let concat a b =
  if not (Spider.equal a.spider b.spider) then
    invalid_arg "Spider_schedule.concat: schedules are on different spiders";
  rechecked ~who:"Spider_schedule.concat" a.spider (Columns.append a.cols b.cols)

(* A chain's processor P(i) is its node on leg 1: the columns are shared. *)
let of_chain_schedule sched =
  { spider = Spider.of_chain (Schedule.chain sched); cols = Schedule.columns sched }

let equal a b = Spider.equal a.spider b.spider && Columns.equal a.cols b.cols

let pp ppf t =
  let c = t.cols in
  Format.fprintf ppf "@[<v>spider schedule (makespan %d):@," (makespan t);
  for idx = 0 to Columns.length c - 1 do
    Format.fprintf ppf "  task %d -> leg %d depth %d, start %d, comms %a@," (idx + 1)
      (Columns.leg c idx) (Columns.depth c idx) c.starts.(idx) Comm_vector.pp
      (Columns.comms c idx)
  done;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
