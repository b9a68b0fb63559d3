(** Fixed-size domain pool with a sharded work queue.

    [create ~jobs ()] spawns [jobs] worker domains ([Domain.spawn], no
    dependencies beyond the standard library).  Work is sharded round-robin
    across one queue per worker; an idle worker drains its own shard first
    and then steals from the others, so one expensive item cannot strand
    the rest of a batch behind it.

    {!map} returns results {e in submission order} regardless of which
    domain ran which item, and is the only way work enters the pool — each
    item's slot in the result array is fixed at submission, so results can
    be neither lost, duplicated nor reordered by scheduling.

    The function passed to {!map} runs on worker domains: it must not
    touch shared mutable state.  Solver calls are pure, and the
    observability layer is domain-local ({!Msts_obs.Obs}), so worker-side
    [span]/[count] calls hit the null sink and are free.  {!map} does
    carry the submitting domain's {!Msts_obs.Obs.Scope} onto the worker
    for each item (set before [f], reset after), so a worker that {e
    does} install a sink attributes its events to the request that
    submitted the work.

    A pool with [jobs <= 1] spawns no domains at all; {!map} then runs
    inline on the caller, which is the baseline the differential tests
    compare against. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] starts the workers.  [jobs] defaults to
    [Domain.recommended_domain_count ()] and is clamped to [1..64]. *)

val jobs : t -> int
(** Worker count (>= 1). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f items] applies [f] to every item on the pool and returns the
    results in the order of [items].  Blocks until every item finished.
    If any [f] raises, the first exception (in completion order) is
    re-raised after the whole batch has drained.  Not re-entrant: one
    [map] at a time per pool. *)

(** {2 Asynchronous submission}

    The daemon-facing half of the pool: {!submit} hands one thunk to a
    worker and returns immediately with a {!ticket}; the caller collects
    results later with {!poll} (non-blocking), {!await} (blocking), or —
    the select-loop shape — by sleeping on {!completion_fd} and calling
    {!drain_completions} when it turns readable.  Like {!map}, [submit]
    carries the submitting domain's {!Msts_obs.Obs.Scope} onto the worker
    for the duration of the thunk.

    On a pool with no worker domains ([jobs <= 1], or after {!shutdown})
    the thunk runs inline on the caller and the ticket is already
    completed when [submit] returns — the degenerate case a single-core
    deployment exercises, with the exact same observable protocol except
    that an inline completion is counted by {!drain_completions} without
    writing {!completion_fd}: nobody can be asleep waiting for it. *)

type 'a ticket
(** A handle to one submitted thunk's eventual result. *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Run the thunk on a worker domain (or inline, see above).  Never
    blocks on worker availability: work queues in the pool's sharded
    run queue.  An exception raised by the thunk is captured in the
    ticket, never thrown at the submitter asynchronously. *)

val poll : 'a ticket -> ('a, exn) result option
(** [None] while the thunk is still queued or running; [Some] forever
    after.  Never blocks. *)

val await : t -> 'a ticket -> ('a, exn) result
(** Block until the ticket completes.  Intended for drain paths and
    tests; select loops should prefer {!completion_fd}. *)

val completion_fd : t -> Unix.file_descr
(** The read end of the pool's completion self-pipe, created on first
    use (pools that are only [map]ed over never pay for it).  It becomes
    readable when a submitted thunk completes on a worker domain; owned
    by the pool and closed by {!shutdown} — do not close or read it
    directly, call {!drain_completions}. *)

val drain_completions : t -> int
(** Consume all pending wake-up bytes (non-blocking) and return how many
    tickets completed since the previous drain.  Returns 0 (and reads
    nothing) when no completions are pending. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent; {!map} after [shutdown] runs
    inline. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
