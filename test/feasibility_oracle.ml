(* The paper-literal Definition 1 checker for chain schedules, kept frozen
   as a test oracle.  The library audits every plan with one flat pass
   (Msts.Plan.check, on the one-leg spider view of a chain); this module
   is the list-based checker that pass replaced, held unchanged so the
   differential tests compare the fast audit against the four properties
   read verbatim, message for message:

   + a task is not re-emitted by a processor before its reception there
     has completed: [C^i_{k-1} + c_{k-1} <= C^i_k];
   + a task starts only after it has been fully received:
     [C^i_{P(i)} + c_{P(i)} <= T(i)];
   + two tasks executed on one processor do not overlap:
     [|T(i) - T(j)| >= w_{P(i)}];
   + two transfers on one link do not overlap: [|C^i_k - C^j_k| >= c_k].

   A fifth, optional property — all dates non-negative — corresponds to
   the paper's final normalisation (schedules start at time 0) and
   matters for the deadline variant of §7. *)

module Chain = Msts.Chain
module Schedule = Msts.Schedule
module Intervals = Msts.Intervals

type violation =
  | Reemitted_before_received of { task : int; link : int }
  | Started_before_received of { task : int }
  | Computation_overlap of { first : int; second : int; proc : int }
  | Communication_overlap of { first : int; second : int; link : int }
  | Negative_date of { task : int }

let pp_violation ppf = function
  | Reemitted_before_received { task; link } ->
      Format.fprintf ppf
        "task %d re-emitted on link %d before its reception completed" task link
  | Started_before_received { task } ->
      Format.fprintf ppf "task %d starts before it is fully received" task
  | Computation_overlap { first; second; proc } ->
      Format.fprintf ppf "tasks %d and %d overlap on processor %d" first second proc
  | Communication_overlap { first; second; link } ->
      Format.fprintf ppf "transfers of tasks %d and %d overlap on link %d" first
        second link
  | Negative_date { task } ->
      Format.fprintf ppf "task %d has a date before time 0" task

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* Busy intervals of link [k] and of processor [k], tagged by task index. *)
let link_intervals t k =
  let c = Chain.latency (Schedule.chain t) k in
  List.filter_map
    (fun i ->
      if Schedule.proc t i >= k then
        Some { Intervals.start = Schedule.emission t i k; duration = c; tag = i }
      else None)
    (Msts.Intx.range 1 (Schedule.task_count t))

let proc_intervals t k =
  let w = Chain.work (Schedule.chain t) k in
  List.filter_map
    (fun i ->
      if Schedule.proc t i = k then
        Some { Intervals.start = Schedule.start t i; duration = w; tag = i }
      else None)
    (Msts.Intx.range 1 (Schedule.task_count t))

(* Properties 1 and 2, one task at a time. *)
let per_task_violations t i =
  let chain = Schedule.chain t and proc = Schedule.proc t i in
  let c k = Schedule.emission t i k in
  let store_and_forward =
    List.filter_map
      (fun k ->
        if c (k - 1) + Chain.latency chain (k - 1) > c k then
          Some (Reemitted_before_received { task = i; link = k })
        else None)
      (Msts.Intx.range 2 proc)
  in
  let reception =
    if c proc + Chain.latency chain proc > Schedule.start t i then
      [ Started_before_received { task = i } ]
    else []
  in
  store_and_forward @ reception

(* Properties 3 and 4 via sorted busy intervals: since all intervals on a
   given resource have the same duration, pairwise disjointness is
   equivalent to consecutive disjointness in start order. *)
let resource_violations t =
  let chain = Schedule.chain t in
  let p = Chain.length chain in
  let on_proc k =
    match Intervals.overlap_witness (proc_intervals t k) with
    | Some (a, b) ->
        [ Computation_overlap { first = a.Intervals.tag; second = b.Intervals.tag; proc = k } ]
    | None -> []
  in
  let on_link k =
    match Intervals.overlap_witness (link_intervals t k) with
    | Some (a, b) ->
        [ Communication_overlap { first = a.Intervals.tag; second = b.Intervals.tag; link = k } ]
    | None -> []
  in
  List.concat_map (fun k -> on_link k @ on_proc k) (Msts.Intx.range 1 p)

let negative_dates t =
  List.filter_map
    (fun i ->
      if
        Schedule.start t i < 0
        || List.exists (fun k -> Schedule.emission t i k < 0)
             (Msts.Intx.range 1 (Schedule.proc t i))
      then
        Some (Negative_date { task = i })
      else None)
    (Msts.Intx.range 1 (Schedule.task_count t))

let check ?(require_nonnegative = false) t =
  let per_task =
    List.concat_map
      (fun i -> per_task_violations t i)
      (Msts.Intx.range 1 (Schedule.task_count t))
  in
  let negatives = if require_nonnegative then negative_dates t else [] in
  negatives @ per_task @ resource_violations t

let is_feasible ?require_nonnegative t = check ?require_nonnegative t = []

let meets_deadline t ~deadline =
  is_feasible ~require_nonnegative:true t && Schedule.makespan t <= deadline
