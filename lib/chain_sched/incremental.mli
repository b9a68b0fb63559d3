(** Incremental backward construction.

    The algorithm builds the optimal [n]-task schedule as an extension of
    the optimal [(n−1)]-task one (the suffix property behind Lemma 4), so
    the construction can be driven one task at a time: start from a
    horizon, keep placing tasks while they fit.  This powers the deadline
    variant, the online scheduler ([Msts_online.Online]), and lets clients
    answer "how many more tasks until [T]?" without recomputing from
    scratch.

    Placements are stored in preallocated struct-of-arrays buffers, so
    once the store has grown to its working capacity (or was created with
    [~capacity]), {!add_task} performs {e zero} minor-heap allocation —
    asserted by the test suite via [Gc.minor_words] and gated in
    [BENCH_online.json].  Readers take a placement field by field
    ({!proc_at}, {!start_at}, {!emission_at}, {!blit_comms}); no record
    is built per placement, and {!schedule} writes the plan's columns.

    Dates are absolute in [\[0, horizon\]]; no final shift is applied. *)

type t

val create : ?capacity:int -> Msts_platform.Chain.t -> horizon:int -> t
(** Fresh construction ending at [horizon], placing tasks with
    {!Kernel.sweep}.  [capacity] (default 0) preallocates room for
    that many placements, making the allocation-free steady state
    immediate instead of reached after geometric growth.
    @raise Invalid_argument on a negative horizon or capacity (message
    prefixed [Msts.Chain.Incremental]). *)

val add_task : t -> bool
(** Place one more task (earlier than everything placed so far).  Returns
    [false] — and places nothing — when the task's first emission would
    fall before time 0, i.e. the horizon is full.  A single O(p) sweep
    both probes and places.  Documented in
    docs/ONLINE.md and docs/TUTORIAL.md. *)

val add_task_from : t -> min_emission:int -> bool
(** {!add_task} with an explicit floor: refuse (returning [false]) when
    the task's first emission would fall before [min_emission].  The
    online scheduler uses the execution frontier as the floor so frozen
    history is never re-entered.  [add_task t] = [add_task_from t
    ~min_emission:0].  The label is non-optional so the per-arrival hot
    path never boxes an argument. *)

val placed : t -> int
(** Number of tasks placed so far. *)

val horizon : t -> int
(** Current horizon (grows under {!extend}). *)

val extend : t -> by:int -> unit
(** Push the horizon [by] time units later, shifting the hull/occupancy
    state and every stored placement with it — the construction behaves
    exactly as if it had started from the longer horizon (the sweep is
    shift-equivariant), and a construction that was full may accept tasks
    again.  O(placed + p).
    @raise Invalid_argument when [by < 0]. *)

val proc_at : t -> int -> int
(** Processor of placement [i] (0-based construction order: placement 0
    is the oldest, latest-in-time task).  @raise Invalid_argument outside
    [0..placed-1]. *)

val start_at : t -> int -> int
(** Compute start date of placement [i]. *)

val emission_at : t -> int -> int
(** Link-1 emission date of placement [i]; strictly decreasing in [i]. *)

val comms_at : t -> int -> Msts_schedule.Comm_vector.t
(** Fresh copy of placement [i]'s communication vector. *)

val blit_comms : t -> int -> int array -> pos:int -> unit
(** [blit_comms t i dst ~pos] copies placement [i]'s communication vector
    into [dst] from [pos] ([proc_at t i] ints), allocating nothing. *)

val schedule : t -> Msts_schedule.Schedule.t
(** Snapshot of the current schedule; tasks renumbered 1.. in emission
    order.  O(placed). *)

val earliest_emission : t -> int option
(** First-link emission of the earliest task placed ([None] when empty) —
    how much of the horizon remains. *)

val fill : t -> ?max_tasks:int -> unit -> int
(** Place tasks until full (or until [max_tasks] in total); returns
    {!placed}. *)
