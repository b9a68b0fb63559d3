(** The unified solver facade.

    One problem record in — a platform, an optional task count, an optional
    deadline — one polymorphic {!Msts_schedule.Plan.t} out.  Dispatch to
    the paper's algorithms happens internally:

    - chains get the §3 backward construction (or its §4 deadline variant);
    - forks, spiders and master-branching-only trees are promoted to
      spiders and get the §6/§7 pipeline;
    - a tree that branches below the master is rejected (use the
      [Msts.Tree_heuristics] covers instead).

    Every chain construction, spider legs included, places its tasks with
    the O(p) sweep of {!Msts_chain.Kernel}; docs/PERFORMANCE.md has its
    cost and how it is checked against the paper-literal construction.

    The CLI's [schedule], [deadline] and [metrics] subcommands go through
    this facade; calling the per-shape algorithms directly from
    applications is deprecated in favour of [Msts.Solve.solve].  Every
    solve runs inside an [Obs] span, so installing a sink (see
    {!Msts_obs.Obs}) observes the full construction. *)

type problem = Msts_pool.Batch.request = {
  platform : Msts_platform.Parse.platform;
  tasks : int option;  (** number of tasks (a budget when a deadline is set) *)
  deadline : int option;  (** time limit [T_lim] *)
}
(** The same record as {!Msts_pool.Batch.request}, so problems flow into
    the batch machinery without conversion. *)

val problem :
  ?tasks:int -> ?deadline:int -> Msts_platform.Parse.platform -> problem
(** Convenience constructor. *)

val solve : problem -> (Msts_schedule.Plan.t, string) result
(** Solve the problem:

    - [tasks = Some n, deadline = None]: makespan-optimal schedule for
      exactly [n] tasks;
    - [tasks = None, deadline = Some d]: schedule the maximum number of
      tasks completing by [d];
    - both set: at most [n] tasks within [d];
    - neither set, a negative count/deadline, or a tree that branches below
      the master: [Error]. *)

val solve_exn : problem -> Msts_schedule.Plan.t
(** {!solve}, raising [Invalid_argument] on [Error].  The entry point
    docs/TUTORIAL.md starts from. *)

val solve_batch :
  ?pool:Msts_pool.Pool.t ->
  ?jobs:int ->
  ?cache:Msts_pool.Batch.cache ->
  problem array ->
  (Msts_schedule.Plan.t, string) result array
(** Solve a whole batch across a domain pool, deduplicated through the
    (optional, shareable) LRU solve cache.  Results come back in
    submission order and are {e structurally identical} to calling
    {!solve} one by one, whatever [jobs] is — the parallel path may not
    change a single date (see docs/PERFORMANCE.md for the determinism
    argument, and [Msts.Batch.run] for per-batch cache statistics).
    [jobs] defaults to [Domain.recommended_domain_count ()]; [pool], when
    given, wins over [jobs]. *)

val as_spider : Msts_platform.Parse.platform -> (Msts_platform.Spider.t, string) result
(** The promotion {!solve} uses for non-chain platforms, exposed for
    callers (the CLI's simulation subcommands) that need the spider
    itself. *)
