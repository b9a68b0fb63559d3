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

type allocation = {
  node : Msts.Fork_expansion.vnode;
  emission : int;  (** start of the transfer on the master's port *)
  position : int;  (** 0-based position in emission order *)
}

val allocation_order : Msts.Fork_expansion.vnode list -> Msts.Fork_expansion.vnode list
(** Ascending [comm], ties by ascending [work], then slave, then rank: the
    order [Msts.Fork_expansion.expand] returns its nodes in. *)

val allocate :
  Msts.Fork_expansion.vnode list -> deadline:int -> budget:int -> allocation list
(** The fork allocator as an insertion loop: each candidate, in
    {!allocation_order}, is placed by a scan of the whole accepted array,
    O(N·accepted).  Same spans, counters and answers as
    [Msts.Fork_allocator.sweep] on the candidates in that order, its
    transfers back-to-back from time 0. *)

(** {2 Spider steps} *)

val leg_schedules :
  ?budget:int -> Msts.Spider.t -> deadline:int -> Msts.Schedule.t array
(** Step 1: leg [l]'s deadline schedule at index [l − 1], at most
    [budget] tasks each, built with this construction. *)

val virtual_fork :
  Msts.Spider.t -> deadline:int -> Msts.Schedule.t array ->
  Msts.Fork_expansion.vnode list
(** Steps 2–3 (Figure 7): every leg's tasks as single-task virtual nodes,
    leg by leg: comm [c₁], work [deadline − C¹ − c₁], rank 0 for the
    leg's last emission.
    @raise Invalid_argument if a task's work would be negative. *)

val task_of_rank : Msts.Schedule.t -> rank:int -> int
(** The leg-schedule task (1-based, emission order) of a given rank.
    @raise Invalid_argument outside [0 .. task count − 1]. *)

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
