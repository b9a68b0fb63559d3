(** The spider algorithm (paper §7).

    Five steps for a deadline [T_lim] and a task budget [n]:

    + run the deadline chain algorithm on every leg;
    + turn each scheduled task into a single-task virtual node seen from
      the master (Figure 7): comm [c₁], the leg's first link, and work
      [T_lim − C¹ − c₁], the slack its leg schedule leaves after its first
      emission [C¹];
    + allocate with the fork algorithm ({!Msts_fork.Allocator});
    + map accepted nodes back to leg tasks (the last [k] of each leg);
    + re-stamp their first emissions with the allocator's one-port schedule
      (always earlier, Lemma 3) and keep everything else unchanged.

    Theorem 3 proves the result schedules the maximum number of tasks
    within [T_lim]; Theorem 2 bounds the cost by [O(n²p²)].  The optimal
    makespan for exactly [n] tasks follows by binary search on [T_lim].

    Every step runs on the leg constructions' flat arrays
    ({!Msts_chain.Deadline.construction}): each leg's nodes are already in
    work order, so the allocation order is a merge of the legs,
    {!Msts_fork.Allocator.sweep} allocates, and the plan's columns are
    written from the legs' arrays.  {!Ceiling.steps} hands the steps out
    with the plan they wrote, for {!Trace} ([msts explain]). *)

val schedule :
  ?budget:int -> Msts_platform.Spider.t -> deadline:int -> Msts_schedule.Spider_schedule.t
(** The full five steps.  Task count is maximal within [deadline] (capped by
    [budget] when given); tasks are numbered in emission order.
    @raise Invalid_argument on a negative deadline or budget. *)

val max_tasks : ?budget:int -> Msts_platform.Spider.t -> deadline:int -> int

(** Steps 1–4 at a deadline, in flat arrays.  Leg [l]'s placement of rank
    [r] has [r] later emissions on its leg (rank 0 emits last): it is task
    [counts.(l − 1) − r] of its deadline schedule, numbered in emission
    order.  It becomes virtual node [j] when [leg.(j) = l − 1] and
    [rank.(j) = r]. *)
type steps = {
  counts : int array;  (** step 1: tasks each leg's deadline schedule fits *)
  comm : int array;  (** steps 2–3: the virtual nodes in allocation order *)
  work : int array;
  leg : int array;  (** 0-based *)
  rank : int array;
  accepted : int array;
      (** step 4: {!Msts_fork.Allocator.sweep}'s indices into the nodes, in
          emission order; the transfers run back-to-back from time 0 *)
}

module Ceiling : sig
  (** The binary search's probe, built once at a search ceiling [H].

      The backward construction is shift invariant: at horizon [d] it is
      the one at [H], translated by [H − d] and truncated where a first
      emission would cross time 0.  So leg [l]'s [j]-th placement exists
      at [d] iff its margin [H − C¹] is at most [d], and its virtual node
      then has comm [c₁(l)] and work [margin − c₁(l)] — neither depends
      on [d].  Every probe's virtual fork is this one node set filtered by
      margin, with its due-date order fixed once, and
      {!Msts_fork.Moore_hodgson} counts it in one pass.  That count is
      the greedy allocator's ({!Msts_fork.Allocator.sweep}): both find
      the most nodes the master's port can serve by the deadline. *)

  type t

  val build : ?budget:int -> Msts_platform.Spider.t -> horizon:int -> t
  (** Leg constructions at [horizon] (at most [budget] tasks each) and
      the node order, merged from the legs: O(n·p·L + n·L²) for [L] legs
      of depth at most [p], [n] the tasks per leg. *)

  val count : t -> deadline:int -> int
  (** [max_tasks ~budget spider ~deadline] for [deadline] in
      [\[0, horizon\]], without building a schedule: O(N·L) at worst
      over the [N <= n·L] nodes, zero allocation.
      @raise Invalid_argument outside [\[0, horizon\]]. *)

  val plan : t -> deadline:int -> Msts_schedule.Spider_schedule.t
  (** [schedule ~budget spider ~deadline], read off the ceiling: each
      leg's placements of margin at most [deadline], their dates moved
      [horizon − deadline] earlier.  O(N·L) for the merge and the
      allocation over the [N] surviving nodes, plus the plan's columns.
      @raise Invalid_argument outside [\[0, horizon\]]. *)

  val steps : t -> deadline:int -> steps * Msts_schedule.Spider_schedule.t
  (** {!plan} together with the steps it was written from.
      @raise Invalid_argument outside [\[0, horizon\]]. *)
end

val min_makespan : Msts_platform.Spider.t -> int -> int
(** Least deadline that fits [n] tasks (binary search over {!max_tasks};
    the staircase is monotone).  0 when [n = 0].  The search is
    warm-started at [lo = ]{!Msts_schedule.Bounds.spider_combined_bound}.

    Every probe is a {!Ceiling.count} instead of a rebuild of the leg
    schedules and a run of the allocator.  The ceiling starts at
    [lo + lo/16] (capped at {!makespan_upper_bound}, which is often
    several times OPT while [lo] is within a few percent of it); while it
    does not fit [n] tasks, [lo] moves past it and the gap doubles.  Each probe bumps
    [spider.leg_reuses] once per leg and [spider.probe_nodes] by the
    nodes it scanned.
    @raise Invalid_argument on a negative [n], or an [n] whose
    master-only makespan on some leg ({!makespan_upper_bound}) exceeds
    [max_int]. *)

val schedule_tasks : Msts_platform.Spider.t -> int -> Msts_schedule.Spider_schedule.t
(** Optimal-makespan schedule for exactly [n] tasks: {!schedule} at
    {!min_makespan}, read off the search's {!Ceiling} ({!Ceiling.plan})
    rather than rebuilt; the allocation is the same greedy run. *)

val makespan_upper_bound : Msts_platform.Spider.t -> int -> int
(** Cheap safe upper bound used to seed the binary search: best
    single-leg master-only makespan.
    @raise Invalid_argument when some leg's master-only makespan for [n]
    tasks exceeds [max_int]: the search and its warm start would wrap. *)
