module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Spider_schedule = Msts_schedule.Spider_schedule
module Allocator = Msts_fork.Allocator
module Moore_hodgson = Msts_fork.Moore_hodgson
module Deadline = Msts_chain.Deadline
module Incremental = Msts_chain.Incremental
module Obs = Msts_obs.Obs

(* Step 1, left in the constructions' flat arrays. *)
let constructions ?(budget = max_int) spider ~deadline =
  Obs.span "spider.leg_schedules" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  Array.init (Spider.legs spider) (fun idx ->
      Deadline.construction ~max_tasks:budget
        (Spider.leg_chain spider (idx + 1))
        ~deadline)

(* A leg's construction at [horizon], read in construction order:
   placement [i] emits first at [horizon − margin.(i)], later placements
   earlier, so margins rise with [i].  Its virtual node (Figure 7: what
   the leg's schedule leaves the task after its first transfer) has comm
   [c1], work [margin.(i) − c1] and rank [i]; read at a deadline [d]
   the leg keeps the placements of margin at most [d], a prefix, so ranks
   do not move. *)
type leg = { build : Incremental.t; c1 : int; margin : int array }

let flat_legs spider ~horizon constructions =
  Array.mapi
    (fun idx build ->
      {
        build;
        c1 = Chain.latency (Spider.leg_chain spider (idx + 1)) 1;
        margin =
          Array.init (Incremental.placed build) (fun i ->
              horizon - Incremental.emission_at build i);
      })
    constructions

(* Placements of [leg] with margin at most [deadline]. *)
let alive leg ~deadline =
  let lo = ref 0 and hi = ref (Array.length leg.margin) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if leg.margin.(mid) <= deadline then lo := mid + 1 else hi := mid
  done;
  !lo

type steps = {
  counts : int array;
  comm : int array;
  work : int array;
  leg : int array;
  rank : int array;
  accepted : int array;
}

(* Steps 1–4 on the legs built at [horizon], read at [deadline]: each leg's
   surviving prefix, put in allocation order [(comm, work, leg, rank)] by
   merging the legs of each [c1] (each is in work order already), and
   swept by the allocator. *)
let allocate legs ~deadline ~budget =
  let legs_n = Array.length legs in
  let head = Array.make legs_n 0 and counts = Array.map (alive ~deadline) legs in
  let size = Array.fold_left ( + ) 0 counts in
  Obs.count ~n:size "spider.virtual_nodes";
  (* leg indices by [c1], ties in leg order *)
  let by_comm = Array.init legs_n Fun.id in
  for k = 1 to legs_n - 1 do
    let l = by_comm.(k) and j = ref k in
    while !j > 0 && legs.(by_comm.(!j - 1)).c1 > legs.(l).c1 do
      by_comm.(!j) <- by_comm.(!j - 1);
      decr j
    done;
    by_comm.(!j) <- l
  done;
  let comm = Array.make size 0 and work = Array.make size 0 in
  let leg = Array.make size 0 and rank = Array.make size 0 in
  let next = ref 0 and first = ref 0 in
  while !first < legs_n do
    let c1 = legs.(by_comm.(!first)).c1 in
    let last = ref !first in
    while !last + 1 < legs_n && legs.(by_comm.(!last + 1)).c1 = c1 do
      incr last
    done;
    let left = ref 0 in
    for k = !first to !last do
      left := !left + counts.(by_comm.(k))
    done;
    for _ = 1 to !left do
      (* the least margin among the class's leg heads, ties to the lower leg *)
      let best = ref (-1) and best_margin = ref max_int in
      for k = !first to !last do
        let l = by_comm.(k) in
        if head.(l) < counts.(l) && legs.(l).margin.(head.(l)) < !best_margin then begin
          best := l;
          best_margin := legs.(l).margin.(head.(l))
        end
      done;
      let l = !best in
      comm.(!next) <- c1;
      work.(!next) <- !best_margin - c1;
      leg.(!next) <- l;
      rank.(!next) <- head.(l);
      head.(l) <- head.(l) + 1;
      incr next
    done;
    first := !last + 1
  done;
  { counts; comm; work; leg; rank; accepted = Allocator.sweep ~comm ~work ~deadline ~budget }

(* Step 5: the accepted placements written back from the legs' arrays into
   the plan's columns, every date moved [shift] earlier and the first
   emissions re-stamped back-to-back in emission order. *)
let write spider legs steps ~shift =
  let accepted = steps.accepted in
  let n = Array.length accepted in
  let on_leg = Array.make n 0 and starts = Array.make n 0 in
  let offsets = Array.make (n + 1) 0 in
  for position = 0 to n - 1 do
    let j = accepted.(position) in
    on_leg.(position) <- steps.leg.(j) + 1;
    offsets.(position + 1) <-
      offsets.(position) + Incremental.proc_at legs.(steps.leg.(j)).build steps.rank.(j)
  done;
  let emissions = Array.make offsets.(n) 0 in
  let emission = ref 0 in
  for position = 0 to n - 1 do
    let j = accepted.(position) in
    let build = legs.(steps.leg.(j)).build and i = steps.rank.(j) in
    let o = offsets.(position) in
    Incremental.blit_comms build i emissions ~pos:o;
    for k = o to offsets.(position + 1) - 1 do
      emissions.(k) <- emissions.(k) - shift
    done;
    (* Lemma 3: the allocator's emission is never later than the original
       first emission, so only this coordinate changes. *)
    emissions.(o) <- !emission;
    emission := !emission + steps.comm.(j);
    starts.(position) <- Incremental.start_at build i - shift
  done;
  Spider_schedule.of_columns spider ~legs:on_leg ~starts ~offsets ~emissions

let schedule ?(budget = max_int) spider ~deadline =
  if deadline < 0 then invalid_arg "Spider algorithm: negative deadline";
  if budget < 0 then invalid_arg "Spider algorithm: negative budget";
  Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let legs = flat_legs spider ~horizon:deadline (constructions ~budget spider ~deadline) in
  write spider legs (allocate legs ~deadline ~budget) ~shift:0

let max_tasks ?budget spider ~deadline =
  Spider_schedule.task_count (schedule ?budget spider ~deadline)

let makespan_upper_bound spider n =
  let best = ref max_int in
  for l = 1 to Spider.legs spider do
    let chain = Spider.leg_chain spider l in
    let c = Chain.latency chain 1 and w = Chain.work chain 1 in
    (* [c + (n − 1)·max c w + w], refused where it would wrap *)
    if n > 0 && n - 1 > (max_int - c - w) / max c w then
      invalid_arg
        (Printf.sprintf
           "Spider algorithm: %d tasks: a leg's master-only makespan exceeds max_int" n);
    best := min !best (Chain.master_only_makespan chain n)
  done;
  !best

(* The backward construction is shift invariant: at horizon [d] it is the
   one at horizon [H], translated by [H − d] and truncated where a first
   emission would cross time 0.  So a leg task emitted first at [C¹] at
   [H] exists at [d] iff its margin [H − C¹] is at most [d], and its
   virtual node then has comm [c₁] and work [d − (C¹ − (H − d)) − c₁ =
   margin − c₁]: neither depends on [d].  Every probe's virtual fork is
   the ceiling's, filtered by margin, and Moore–Hodgson counts it over an
   order fixed once. *)
module Ceiling = struct
  type t = {
    spider : Spider.t;
    horizon : int;
    budget : int;
    legs : leg array; (* leg constructions at [horizon] *)
    nodes : Moore_hodgson.t;
  }

  let build ?(budget = max_int) spider ~horizon =
    let legs = flat_legs spider ~horizon (constructions ~budget spider ~deadline:horizon) in
    (* Due-date order, work non-increasing with ties to the lower leg: each
       leg read from its last placement back, the legs merged. *)
    let head = Array.map (fun leg -> Array.length leg.margin) legs in
    let size = Array.fold_left ( + ) 0 head in
    let comm = Array.make size 0 and work = Array.make size 0 in
    for next = 0 to size - 1 do
      let best = ref (-1) and best_work = ref min_int in
      for l = 0 to Array.length legs - 1 do
        let leg = legs.(l) in
        if head.(l) > 0 && leg.margin.(head.(l) - 1) - leg.c1 > !best_work then begin
          best := l;
          best_work := leg.margin.(head.(l) - 1) - leg.c1
        end
      done;
      comm.(next) <- legs.(!best).c1;
      work.(next) <- !best_work;
      head.(!best) <- head.(!best) - 1
    done;
    { spider; horizon; budget; legs; nodes = Moore_hodgson.make ~comm ~work }

  let check_deadline t deadline =
    if deadline < 0 || deadline > t.horizon then
      invalid_arg
        (Printf.sprintf "Spider algorithm: deadline %d outside the ceiling 0..%d"
           deadline t.horizon)

  let count t ~deadline =
    check_deadline t deadline;
    Moore_hodgson.count t.nodes ~deadline ~budget:t.budget

  let plan t ~deadline =
    check_deadline t deadline;
    write t.spider t.legs
      (allocate t.legs ~deadline ~budget:t.budget)
      ~shift:(t.horizon - deadline)

  let steps t ~deadline =
    check_deadline t deadline;
    let steps = allocate t.legs ~deadline ~budget:t.budget in
    (steps, write t.spider t.legs steps ~shift:(t.horizon - deadline))
end

(* The least deadline fitting [n] tasks, with the ceiling it was searched
   over ([None] only for [n = 0], which needs no search). *)
let search spider n =
  if n < 0 then invalid_arg "Spider algorithm: negative task count";
  if n = 0 then (0, None)
  else begin
    Obs.span "spider.min_makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    let hi = makespan_upper_bound spider n in
    (* Warm start: every spider bound is provably <= OPT. *)
    let lo = Msts_schedule.Bounds.spider_combined_bound spider n in
    let fits ceiling d =
      Obs.count "spider.search_probes";
      Obs.count ~n:(Array.length ceiling.Ceiling.legs) "spider.leg_reuses";
      let fits = Ceiling.count ceiling ~deadline:d >= n in
      Obs.count
        ~n:(Moore_hodgson.scanned ceiling.Ceiling.nodes)
        "spider.probe_nodes";
      fits
    in
    (* [hi] is often several times OPT while [lo] is within a few percent
       of it, so the ceiling grows from [lo] by doubling gaps until it fits
       [n]; each miss lifts [lo] past it. *)
    let rec grow lo gap =
      let horizon = if gap >= hi - lo then hi else lo + gap in
      let ceiling = Ceiling.build ~budget:n spider ~horizon in
      if horizon = hi || fits ceiling horizon then (lo, horizon, ceiling)
      else grow (horizon + 1) (if gap > max_int / 2 then max_int else 2 * gap)
    in
    let lo, top, ceiling = grow lo (max 1 (lo / 16)) in
    match Msts_util.Intx.binary_search_least ~lo ~hi:top (fits ceiling) with
    | Some d -> (d, Some ceiling)
    | None -> (top, Some ceiling) (* unreachable: [top] fits or is [hi] *)
  end

let min_makespan spider n = fst (search spider n)

let schedule_tasks spider n =
  match search spider n with
  | deadline, None -> schedule ~budget:n spider ~deadline
  | deadline, Some ceiling ->
      Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
      @@ fun () ->
      Obs.count ~n:(Array.length ceiling.Ceiling.legs) "spider.leg_reuses";
      Ceiling.plan ceiling ~deadline
