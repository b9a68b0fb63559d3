(** Batch solving: fan a set of problems across a domain pool, with a
    bounded LRU solve cache shared behind a mutex.

    The driver is deliberately deterministic: results depend only on the
    requests (and the cache's prior content), never on the worker count or
    on scheduling, so [jobs = 1] and [jobs = 4] produce byte-identical
    outputs.  The argument, spelled out in docs/PERFORMANCE.md:

    {ol
    {- every request is fingerprinted on the {e canonical} platform
       serialisation plus the objective — the full key, not its hash;}
    {- cache probes, within-batch deduplication and cache insertions all
       run sequentially on the coordinating domain, in submission order,
       so the LRU's eviction sequence is a pure function of the request
       sequence;}
    {- worker domains only ever run [solve] on distinct fingerprints —
       pure, independent calls whose results land in per-request slots
       ({!Pool.map} preserves submission order).}}

    Observability: the coordinator wraps the run in a [pool.batch] span
    and emits [pool.requests], [pool.cache_hits], [pool.cache_misses],
    [pool.solves], [pool.queue_wait_us] and [pool.busy_us] counters.
    Workers aggregate their timings in per-domain (per-slot) cells on the
    fast path and never touch the sink ({!Msts_obs.Obs} is
    domain-local). *)

type request = {
  platform : Msts_platform.Parse.platform;
  tasks : int option;
  deadline : int option;
}
(** Same shape as [Msts.Solve.problem] (the facade re-exports this very
    type, so the two are interchangeable). *)

type outcome = (Msts_schedule.Plan.t, string) result

val fingerprint : request -> string
(** Canonical cache key: the platform's textual serialisation (the
    round-tripping {!Msts_platform.Parse.platform_to_string} form) plus
    the objective.  Equal fingerprints iff same platform and same
    objective. *)

(** {2 The shared solve cache} *)

type cache

val cache : capacity:int -> cache
(** A bounded LRU cache ({!Msts_util.Lru}) behind a mutex, safe to share
    across pools and batches.  @raise Invalid_argument if
    [capacity < 1]. *)

val cache_capacity : cache -> int

val cache_length : cache -> int
(** Current number of cached outcomes. *)

val cache_keys : cache -> string list
(** The cached fingerprints, from most to least recently used. *)

(** {2 Running a batch} *)

type stats = {
  jobs : int;  (** worker count actually used *)
  requests : int;
  cache_hits : int;
      (** requests served without a fresh solve: LRU hits plus duplicates
          of an earlier request in the same batch *)
  cache_misses : int;  (** = solves dispatched to the pool *)
  queue_wait_us : int;  (** summed submission-to-start latency *)
  busy_us : int;  (** summed worker time spent solving *)
}
(** Always: [requests = cache_hits + cache_misses]. *)

val run :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?cache:cache ->
  solve:(request -> outcome) ->
  request array ->
  outcome array * stats
(** [run ~solve requests] solves every request and returns the outcomes in
    submission order.  [?pool] reuses a running pool (its size wins over
    [?jobs]); otherwise a fresh pool of [?jobs] workers (default
    [Domain.recommended_domain_count ()]) is spun up and shut down.
    Without [?cache] a private throw-away cache sized to the batch is
    used, so within-batch deduplication still applies. *)

(** {2 Sharded execution}

    {!run} split into its two sequential coordinator halves, so a caller
    that owns its own scheduling — the [msts serve] engine interleaving
    one batch's problems with other clients' requests — can run the
    middle (the solves) as independent units on any pool, in any
    completion order, and still assemble the exact bytes {!run} would
    have produced: {!shard} performs the deduplication/cache-probe pass,
    the caller solves [shard_request plan slot] for every slot (each a
    distinct fingerprint, pure and independent), and {!assemble} inserts
    the outcomes into the cache in slot order (deterministic eviction),
    resolves duplicates, emits the [pool.*] counters and builds the
    {!stats}.  [run = shard; solve each slot on a pool; assemble]. *)

type plan
(** The frozen coordinator pass: per-request resolutions plus the
    distinct problems still to solve. *)

val shard : ?cache:cache -> ?repeats:int array -> request array -> plan
(** Probe the cache and deduplicate, in submission order.  Like {!run},
    a missing [?cache] means a private throw-away cache sized to the
    batch.

    [?repeats] is the batch's repeat map: for every request [i], the
    first request [j <= i] that is the same physical value
    ([repeats.(j) = j], [requests.(j) == requests.(i)]), as
    [Msts.Api.request_or_rejection] gives it for a decoded batch
    frame.  A repeat then costs two int copies: it is neither hashed nor
    fingerprinted, and nothing is allocated for it.  Each first is
    fingerprinted and probed against the cache once, and each physically
    distinct platform value is printed once.  Without [?repeats] the map
    is derived here, by one pass that files each request by physical
    identity.

    Both the derived map and the platform texts are kept in identity
    tables whose buckets ([Hashtbl.hash] of the value) hold at most 8
    entries: a value its full bucket turns away is handled as a first
    (it is fingerprinted, and the fingerprint table still dedupes it).
    So a lookup compares at most 8 values, whatever the batch: at most
    8·N compares with a repeat map of N requests, 16·N without one.  The
    compares are counted in [pool.identity_candidates].
    @raise Invalid_argument if [repeats] is not such a map (checked in
    O(1) per request). *)

val fingerprints : plan -> string array
(** The cache key of every request, in submission order: pointwise equal
    to {!fingerprint}. *)

val firsts : plan -> int array
(** For every request, in submission order, the first request with its
    fingerprint: itself, or the earlier request whose outcome
    {!assemble} gives it.  [firsts.(firsts.(i)) = firsts.(i)].  This is
    the plan's own array, not a copy: read it, never write it. *)

val shard_count : plan -> int
(** Distinct uncached problems — the units to solve. *)

val shard_request : plan -> int -> request
(** The slot's problem ([0 <= slot < shard_count]). *)

val assemble :
  plan ->
  jobs:int ->
  solved:outcome array ->
  wait_us:int array ->
  busy_us:int array ->
  outcome array * stats
(** Insert [solved] (slot-indexed, one per {!shard_count}) into the
    cache, resolve every request, and emit the [pool.*] telemetry on the
    calling domain.  [wait_us]/[busy_us] are per-slot timings summed into
    the stats ([jobs] is reported verbatim).  Call exactly once per
    plan.  @raise Invalid_argument on a mis-sized [solved] array. *)
