(* Chain and spider schedules as they were stored before plans became
   int columns: one record per task (processor or leg and depth, start,
   and its own emission vector), plus the machine-readable printers that
   read those records.  Kept frozen as the oracle of the differential
   suite in test_plan_columns.ml: every plan the library produces, read
   back into this layout, must give the same entries, makespan, per-leg
   views, Definition 1 audit, text and serial forms.  The converters at
   the end carry plans between the two layouts, so tests that write plans
   row by row build them here. *)

module Comm_vector = Msts.Comm_vector

module Schedule = struct
  module Chain = Msts_platform.Chain

  type entry = { proc : int; start : int; comms : Comm_vector.t }

  type t = { chain : Chain.t; entries : entry array }

  let make chain entries =
    let p = Chain.length chain in
    Array.iteri
      (fun idx e ->
        let task = idx + 1 in
        if e.proc < 1 || e.proc > p then
          invalid_arg
            (Printf.sprintf "Schedule.make: task %d on processor %d outside 1..%d"
               task e.proc p);
        if Array.length e.comms <> e.proc then
          invalid_arg
            (Printf.sprintf
               "Schedule.make: task %d has %d communications for processor %d"
               task (Array.length e.comms) e.proc))
      entries;
    { chain; entries = Array.copy entries }

  let chain t = t.chain

  let task_count t = Array.length t.entries

  let entry t i =
    if i < 1 || i > task_count t then
      invalid_arg
        (Printf.sprintf "Schedule.entry: task %d outside 1..%d" i (task_count t));
    t.entries.(i - 1)

  let entries t = Array.copy t.entries

  (* A loop, not a fold: a closure over [t] would cost words per call. *)
  let makespan t =
    let m = ref 0 in
    for i = 0 to Array.length t.entries - 1 do
      let e = t.entries.(i) in
      let finish = e.start + Chain.work t.chain e.proc in
      if finish > !m then m := finish
    done;
    !m

  let start_time t =
    Array.fold_left
      (fun acc e -> min acc (e.comms.(0)))
      max_int t.entries

  let shift d t =
    let move e =
      { e with start = e.start - d; comms = Comm_vector.shift d e.comms }
    in
    { t with entries = Array.map move t.entries }

  let normalise t = if task_count t = 0 then t else shift (start_time t) t

  let tasks_on t k =
    let with_start =
      List.filter_map
        (fun idx ->
          let e = t.entries.(idx) in
          if e.proc = k then Some (e.start, idx + 1) else None)
        (List.init (task_count t) Fun.id)
    in
    List.map snd (List.sort compare with_start)

  let restrict_beyond_first t =
    let sub_chain = Chain.drop_first t.chain in
    let entries =
      Array.of_list
        (List.filter_map
           (fun e ->
             if e.proc >= 2 then
               Some
                 {
                   proc = e.proc - 1;
                   start = e.start;
                   comms = Array.sub e.comms 1 (e.proc - 1);
                 }
             else None)
           (Array.to_list t.entries))
    in
    make sub_chain entries

  let equal a b =
    Chain.equal a.chain b.chain
    && task_count a = task_count b
    && Array.for_all2
         (fun x y -> x.proc = y.proc && x.start = y.start && x.comms = y.comms)
         a.entries b.entries

  let equal_modulo_shift a b = equal (normalise a) (normalise b)

  let pp ppf t =
    Format.fprintf ppf "@[<v>schedule on %a (makespan %d):@," Chain.pp t.chain
      (makespan t);
    Array.iteri
      (fun idx e ->
        Format.fprintf ppf "  task %d -> P%d, start %d, comms %a@," (idx + 1)
          e.proc e.start Comm_vector.pp e.comms)
      t.entries;
    Format.fprintf ppf "@]"

  let to_string t = Format.asprintf "%a" pp t
end

module Spider_schedule = struct
  module Spider = Msts_platform.Spider
  module Chain = Msts_platform.Chain

  type entry = { address : Spider.address; start : int; comms : Comm_vector.t }

  type t = { spider : Spider.t; entries : entry array }

  let make spider entries =
    Array.iteri
      (fun idx e ->
        let task = idx + 1 in
        let { Spider.leg; depth } = e.address in
        if leg < 1 || leg > Spider.legs spider then
          invalid_arg (Printf.sprintf "Spider_schedule.make: task %d on leg %d" task leg);
        let chain = Spider.leg_chain spider leg in
        if depth < 1 || depth > Chain.length chain then
          invalid_arg
            (Printf.sprintf "Spider_schedule.make: task %d at depth %d on leg %d"
               task depth leg);
        if Array.length e.comms <> depth then
          invalid_arg
            (Printf.sprintf "Spider_schedule.make: task %d comm vector length" task))
      entries;
    { spider; entries = Array.copy entries }

  let spider t = t.spider

  let task_count t = Array.length t.entries

  let entry t i =
    if i < 1 || i > task_count t then
      invalid_arg
        (Printf.sprintf "Spider_schedule.entry: task %d outside 1..%d" i (task_count t));
    t.entries.(i - 1)

  let entries t = Array.copy t.entries

  (* A loop, not a fold: a closure over [t] would cost words per call. *)
  let makespan t =
    let m = ref 0 in
    for i = 0 to Array.length t.entries - 1 do
      let e = t.entries.(i) in
      let finish = e.start + Spider.work t.spider e.address in
      if finish > !m then m := finish
    done;
    !m

  let tasks_on_leg t l =
    let keyed =
      List.filter_map
        (fun idx ->
          let e = t.entries.(idx) in
          if e.address.Spider.leg = l then
            Some (e.comms.(0), idx + 1)
          else None)
        (List.init (task_count t) Fun.id)
    in
    List.map snd (List.sort compare keyed)

  let leg_schedule t l =
    let chain = Spider.leg_chain t.spider l in
    let entries =
      Array.of_list
        (List.filter_map
           (fun e ->
             if e.address.Spider.leg = l then
               Some
                 {
                   Schedule.proc = e.address.Spider.depth;
                   start = e.start;
                   comms = e.comms;
                 }
             else None)
           (Array.to_list t.entries))
    in
    Schedule.make chain entries

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
  let uses ~kind ~k (e : entry) =
    kind = on_port
    || (if kind = on_link then e.address.Spider.depth >= k else e.address.Spider.depth = k)

  let date ~kind ~k (e : entry) = if kind = on_proc then e.start else e.comms.(k - 1)

  (* The candidate at position [p], and its tag. *)
  let task_at ~kind ~by_leg p = if kind = on_port then p else by_leg.(p)
  let tag_at ~kind ~lo p = if kind = on_port then p + 1 else p - lo + 1

  let duration t ~kind ~k ~by_leg ~lo tag =
    let e = t.entries.(if kind = on_port then tag - 1 else by_leg.(lo + tag - 1)) in
    let chain = Spider.leg_chain t.spider e.address.Spider.leg in
    if kind = on_proc then Chain.work chain k else Chain.latency chain k

  let overlap t ~by_leg ~keys ~lo ~hi ~kind ~k =
    let entries = t.entries and n = Array.length t.entries in
    let m = ref 0 and dmin = ref max_int and dmax = ref min_int in
    for p = lo to hi - 1 do
      let e = entries.(task_at ~kind ~by_leg p) in
      if uses ~kind ~k e then begin
        let d = date ~kind ~k e in
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
          let e = entries.(task_at ~kind ~by_leg p) in
          if uses ~kind ~k e then begin
            keys.(!j) <- ((date ~kind ~k e - dmin) lsl bits) lor tag_at ~kind ~lo p;
            incr j
          end
        done;
        Msts_util.Intx.sort_sub keys ~pos:0 ~len:m;
        [||]
      end
      else begin
        let pairs = ref [] in
        for p = hi - 1 downto lo do
          let e = entries.(task_at ~kind ~by_leg p) in
          if uses ~kind ~k e then pairs := (date ~kind ~k e, tag_at ~kind ~lo p) :: !pairs
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

  let negative (e : entry) =
    let neg = ref (e.start < 0) in
    for j = 0 to Array.length e.comms - 1 do
      if e.comms.(j) < 0 then neg := true
    done;
    !neg

  (* Definition 1 per leg, then the master's one-port rule, in one pass over
     interval keys: the tasks are grouped by leg (entry order kept, and
     numbered within the leg as the leg's chain schedule would), and every
     resource's intervals are packed into one scratch array, sorted and
     scanned for the first overlapping neighbours.  Per leg the violations
     come negative dates first, then properties 1 and 2 task by task, then
     link and processor overlaps resource by resource.  Messages are built
     only for violations. *)
  let violations ?(require_nonnegative = false) t =
    let spider = t.spider and entries = t.entries in
    let n = Array.length entries and legs = Spider.legs spider in
    let first = Array.make (legs + 2) 0 in
    for i = 0 to n - 1 do
      let l = entries.(i).address.Spider.leg in
      first.(l + 1) <- first.(l + 1) + 1
    done;
    for l = 1 to legs + 1 do
      first.(l) <- first.(l) + first.(l - 1)
    done;
    (* by_leg.(first.(l) .. first.(l+1) - 1): leg [l]'s tasks, entry order *)
    let by_leg = Array.make n 0 in
    for i = 0 to n - 1 do
      let l = entries.(i).address.Spider.leg in
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
          if negative entries.(by_leg.(p)) then
            flag l (Printf.sprintf "task %d has a date before time 0" (p - lo + 1))
        done;
      (* properties 1 and 2, one task at a time *)
      for p = lo to hi - 1 do
        let e = entries.(by_leg.(p)) and task = p - lo + 1 in
        let depth = e.address.Spider.depth in
        for k = 2 to depth do
          if e.comms.(k - 2) + Chain.latency chain (k - 1) > e.comms.(k - 1) then
            flag l
              (Printf.sprintf
                 "task %d re-emitted on link %d before its reception completed" task k)
        done;
        if e.comms.(depth - 1) + Chain.latency chain depth > e.start then
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
    let move (e : entry) =
      if e.start + delta < 0 || Array.exists (fun c -> c + delta < 0) e.comms then
        invalid_arg "Spider_schedule.shift: negative date after shift";
      { e with start = e.start + delta; comms = Array.map (( + ) delta) e.comms }
    in
    { t with entries = Array.map move t.entries }

  let filter_tasks t ~keep =
    let entries =
      Array.of_list
        (List.filter_map
           (fun idx -> if keep (idx + 1) then Some t.entries.(idx) else None)
           (List.init (task_count t) Fun.id))
    in
    { t with entries }

  let concat a b =
    if not (Msts_platform.Spider.equal a.spider b.spider) then
      invalid_arg "Spider_schedule.concat: schedules are on different spiders";
    { a with entries = Array.append a.entries b.entries }

  let of_chain_schedule sched =
    let chain = Schedule.chain sched in
    (* one address per depth, shared by every task executed there *)
    let at = Array.init (Chain.length chain + 1) (fun depth -> { Spider.leg = 1; depth }) in
    {
      spider = Spider.of_chain chain;
      entries =
        Array.init (Schedule.task_count sched) (fun idx ->
            let e = Schedule.entry sched (idx + 1) in
            { address = at.(e.Schedule.proc); start = e.start; comms = e.comms });
    }

  let equal a b =
    Spider.equal a.spider b.spider
    && Array.length a.entries = Array.length b.entries
    && Array.for_all2
         (fun x y -> x.address = y.address && x.start = y.start && x.comms = y.comms)
         a.entries b.entries

  let pp ppf t =
    Format.fprintf ppf "@[<v>spider schedule (makespan %d):@," (makespan t);
    Array.iteri
      (fun idx e ->
        Format.fprintf ppf "  task %d -> leg %d depth %d, start %d, comms %a@,"
          (idx + 1) e.address.Spider.leg e.address.Spider.depth e.start
          Comm_vector.pp e.comms)
      t.entries;
    Format.fprintf ppf "@]"

  let to_string t = Format.asprintf "%a" pp t
end

module Serial = struct
  let ints_line ints = String.concat " " (List.map string_of_int ints)

  let schedule_to_string sched =
    let entry (e : Schedule.entry) =
      "task " ^ ints_line (e.proc :: e.start :: Array.to_list e.comms)
    in
    String.concat "\n"
      ("chain-schedule"
      :: List.map entry (Array.to_list (Schedule.entries sched)))
    ^ "\n"

  let spider_schedule_to_string sched =
    let entry (e : Spider_schedule.entry) =
      "task "
      ^ ints_line
          (e.address.Msts_platform.Spider.leg
          :: e.address.Msts_platform.Spider.depth
          :: e.start
          :: Array.to_list e.comms)
    in
    String.concat "\n"
      ("spider-schedule"
      :: List.map entry (Array.to_list (Spider_schedule.entries sched)))
    ^ "\n"

  let schedule_to_csv sched =
    let chain = Schedule.chain sched in
    let table =
      Msts_util.Table.create ~title:"schedule"
        ~columns:[ "task"; "processor"; "start"; "completion"; "emissions" ]
    in
    Array.iteri
      (fun idx (e : Schedule.entry) ->
        Msts_util.Table.add_row table
          [
            string_of_int (idx + 1);
            string_of_int e.proc;
            string_of_int e.start;
            string_of_int (e.start + Msts_platform.Chain.work chain e.proc);
            String.concat ";" (List.map string_of_int (Array.to_list e.comms));
          ])
      (Schedule.entries sched);
    Msts_util.Table.to_csv table

  let spider_schedule_to_csv sched =
    let spider = Spider_schedule.spider sched in
    let table =
      Msts_util.Table.create ~title:"schedule"
        ~columns:[ "task"; "leg"; "depth"; "start"; "completion"; "emissions" ]
    in
    Array.iteri
      (fun idx (e : Spider_schedule.entry) ->
        Msts_util.Table.add_row table
          [
            string_of_int (idx + 1);
            string_of_int e.address.Msts_platform.Spider.leg;
            string_of_int e.address.Msts_platform.Spider.depth;
            string_of_int e.start;
            string_of_int (e.start + Msts_platform.Spider.work spider e.address);
            String.concat ";" (List.map string_of_int (Array.to_list e.comms));
          ])
      (Spider_schedule.entries sched);
    Msts_util.Table.to_csv table
end

(* ---------- between the layouts ---------- *)

(* Start dates and vectors as the library's columns. *)
let columns starts vectors =
  let offsets = Array.make (Array.length starts + 1) 0 in
  Array.iteri (fun i v -> offsets.(i + 1) <- offsets.(i) + Array.length v) vectors;
  (offsets, Array.concat (Array.to_list vectors))

let vector emission sched i ~depth = Array.init depth (fun k -> emission sched i (k + 1))

(* Reference rows, checked by the reference, to the library's columns
   through its validating constructors. *)
let chain_plan chain (rows : Schedule.entry array) =
  ignore (Schedule.make chain rows);
  let starts = Array.map (fun (e : Schedule.entry) -> e.start) rows in
  let offsets, emissions = columns starts (Array.map (fun (e : Schedule.entry) -> e.comms) rows) in
  Msts.Schedule.of_columns chain ~starts ~offsets ~emissions

let spider_plan spider (rows : Spider_schedule.entry array) =
  ignore (Spider_schedule.make spider rows);
  let starts = Array.map (fun (e : Spider_schedule.entry) -> e.start) rows in
  let offsets, emissions =
    columns starts (Array.map (fun (e : Spider_schedule.entry) -> e.comms) rows)
  in
  Msts.Spider_schedule.of_columns spider
    ~legs:(Array.map (fun (e : Spider_schedule.entry) -> e.address.Msts.Spider.leg) rows)
    ~starts ~offsets ~emissions

(* The library's columns read back as rows, through its accessors. *)
let chain_row sched i =
  let proc = Msts.Schedule.proc sched i in
  {
    Schedule.proc;
    start = Msts.Schedule.start sched i;
    comms = vector Msts.Schedule.emission sched i ~depth:proc;
  }

let spider_row sched i =
  let module S = Msts.Spider_schedule in
  let depth = S.depth sched i in
  {
    Spider_schedule.address = { Msts.Spider.leg = S.leg sched i; depth };
    start = S.start sched i;
    comms = vector S.emission sched i ~depth;
  }

let chain_rows sched =
  Array.init (Msts.Schedule.task_count sched) (fun idx -> chain_row sched (idx + 1))

let spider_rows sched =
  Array.init (Msts.Spider_schedule.task_count sched) (fun idx -> spider_row sched (idx + 1))

let of_chain_plan sched = Schedule.make (Msts.Schedule.chain sched) (chain_rows sched)

let of_spider_plan sched =
  Spider_schedule.make (Msts.Spider_schedule.spider sched) (spider_rows sched)
