(** The placement kernel of the backward chain construction.

    Every construction in the library places tasks with this O(p) sweep.
    It exploits the suffix-min structure of the candidates: they all
    share the propagation [v_j = min(v_{j+1}, h_j) − c_j], whose maps are
    monotone, so the Definition 3 winner can be decided with one scalar
    comparison per processor during a single backward sweep over a
    reusable scratch buffer — no per-task allocation beyond the chosen
    vector itself, and no per-task counter event: the scratch tallies
    them.

    The paper-literal construction, which materialises all [p] candidate
    vectors (total size O(p²)) per placement and compares them with
    {!Msts_schedule.Comm_vector.precedes}, survives in two places: the
    [~on_step] path of {!Algorithm.schedule}, which records every
    candidate, and a frozen copy in the test suite that the differential
    tests compare this sweep against. *)

type scratch
(** Reusable buffer for the fast sweep; grows to the largest [p] seen.
    It also tallies the construction's [chain.*] counters until
    {!flush}. *)

val scratch : unit -> scratch

val sweep :
  Msts_platform.Chain.t ->
  hull:int array -> occupancy:int array -> scratch -> int
(** One fused candidates+select pass: returns the winning processor
    (1-based, the same index {!Algorithm.select} would pick) and leaves
    the winner's communication vector in the scratch buffer, readable
    through {!first_emission} and {!blit_chosen}.  Does not mutate the
    state arrays.  O(p) time, zero allocation after warm-up. *)

val first_emission : scratch -> int
(** The winner's link-1 emission date (coordinate 1 of its vector) after
    a {!sweep}; negative when the next task no longer fits the horizon. *)

val blit_chosen : scratch -> proc:int -> int array -> pos:int -> unit
(** Write the winner's communication vector (length [proc]) into [dst]
    at [pos], after a {!sweep} returning [proc]; allocates nothing.  Lets
    {!Incremental} and the chain solve store placements in a pool, so the
    whole per-arrival path runs without touching the minor heap. *)

val commit :
  Msts_platform.Chain.t ->
  hull:int array -> occupancy:int array -> scratch -> proc:int -> int
(** Apply the placement the last {!sweep} decided: update occupancy and
    hull in place exactly as {!Algorithm.place} would, tally the same
    counters in the scratch, and return the task's start time. *)

val flush : scratch -> unit
(** Emit the counters tallied since the last flush — [chain.candidate_scans],
    [chain.tasks_placed], [chain.hull_updates] and
    [chain.kernel.fast_placements], one counter event each, none for a
    zero total — and reset them.  Constructions call it once at their
    end; with no sink installed it only resets, allocating nothing. *)
