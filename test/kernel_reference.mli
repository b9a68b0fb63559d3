(** The paper-literal backward construction, frozen as the oracle for the
    O(p) sweep of [Msts.Chain_kernel].

    Every placement here materialises all [p] candidate vectors with
    [Msts.Chain_algorithm.candidates] and picks the greatest in
    Definition 3's order with [Msts.Chain_algorithm.select]: the paper's
    O(n·p²) cost.  These are the code paths the library ran when it still
    offered this construction as a second kernel, copied as they stood,
    telemetry included, so the differential tests in test_kernel.ml and
    test_online.ml compare the library with an independent construction
    and the kernel-scaling bench (which reaches this module with
    [copy_files]) keeps timing the same program.

    The chain schedule itself needs no copy: the library's own candidate
    scan, [Msts.Chain_algorithm.schedule_with_selector
    ~select:Msts.Chain_algorithm.select], is this construction. *)

val makespan : Msts.Chain.t -> int -> int
(** Makespan of the optimal [n]-task chain schedule, placing every task
    by a full candidate scan.  0 when [n = 0]. *)

(** {2 Deadline construction} *)

type construction
(** A backward construction from a fixed horizon that probes the next
    task with a full candidate scan before placing it. *)

val create : Msts.Chain.t -> horizon:int -> construction
(** @raise Invalid_argument on a negative horizon. *)

val add_task_from : construction -> min_emission:int -> bool
(** Place one more task unless its first emission would fall before
    [min_emission]; [false] (and nothing placed, ever again) otherwise. *)

val fill : construction -> ?max_tasks:int -> unit -> int
(** Place tasks until full (or [max_tasks] in total); the count placed. *)

val earliest_emission : construction -> int option
(** First-link emission of the newest placement; [None] when empty. *)

val schedule : construction -> Msts.Schedule.t
(** The placements as a schedule, tasks numbered in emission order; dates
    absolute in [\[0, horizon\]]. *)

val deadline_schedule :
  ?max_tasks:int -> Msts.Chain.t -> deadline:int -> Msts.Schedule.t
(** [Msts.Chain_deadline.schedule] on this construction. *)

(** {2 Fork allocator} *)

val allocate :
  Msts.Fork_expansion.vnode list -> deadline:int -> budget:int ->
  Msts.Fork_allocator.allocation list
(** [Msts.Fork_allocator.allocate] as an insertion loop: each candidate,
    in allocation order, is placed by a scan of the whole accepted array,
    O(N·accepted).  Same spans, counters and answers. *)

(** {2 Spider search} *)

val spider_plan :
  ?budget:int -> Msts.Spider.t -> deadline:int -> Msts.Spider_schedule.t
(** [Msts.Spider_algorithm.schedule]: each leg's deadline schedule built
    with this construction, the virtual fork allocated by {!allocate}. *)

val spider_min_makespan : Msts.Spider.t -> int -> int
(** Least deadline fitting [n] tasks, by a binary search warm-started at
    [Msts.Bounds.spider_combined_bound] whose every probe rebuilds each
    leg's deadline schedule with this construction and runs {!allocate}
    on the result. *)

val spider_schedule_tasks : Msts.Spider.t -> int -> Msts.Spider_schedule.t
(** The §7 schedule at {!spider_min_makespan}, from the same rebuilt legs. *)
