(** Master-Slave Task Scheduling — umbrella module.

    Reproduction of {e "Master-slave Tasking on Heterogeneous Processors"}
    (Pierre-François Dutot, IPPS 2003): optimal scheduling of independent
    identical tasks on heterogeneous chains and spiders under the one-port,
    store-and-forward model.

    The sub-libraries remain directly usable; this module only collects the
    public entry points under one namespace:

    {ul
    {- the unified facade: {!Solve} (one problem record, one {!Plan});}
    {- multicore batch solving: {!Pool} (domain pool, sharded queue) and
       {!Batch} (LRU solve cache, deterministic fan-out), surfaced as
       {!Solve.solve_batch};}
    {- platform descriptions: {!Chain}, {!Fork}, {!Spider}, {!Tree},
       {!Generator}, {!Platform_format}, {!Dot};}
    {- schedules and their audit: {!Comm_vector}, {!Columns}, {!Schedule},
       {!Spider_schedule}, {!Plan}, {!Metrics}, {!Intervals}, {!Gantt}, {!Svg};}
    {- the paper's algorithms: {!Chain_algorithm}, {!Chain_deadline},
       {!Chain_lemmas}, {!Chain_trace}, {!Fork_expansion}, {!Fork_allocator},
       {!Fork_count}, {!Spider_algorithm}, {!Spider_trace};}
    {- trees, and the one ASAP sweep, exhaustive search and forward
       heuristics that chains and spiders run on through [Tree.of_spider]:
       {!Tree_flat}, {!Tree_schedule}, {!Asap}, {!Tree_search},
       {!Tree_heuristics};}
    {- oracles and baselines: {!Brute_force}, {!Local_search}, {!Bounds},
       {!Steady_state};}
    {- execution substrate: {!Engine}, {!Netsim};}
    {- observability: {!Obs} (spans, counters, Chrome traces), {!Json};}
    {- utilities: {!Prng}, {!Stats}, {!Table}, {!Intx}.} } *)

(* The unified facade: one problem record in, one polymorphic plan out. *)
module Solve = Solve

(* The versioned, typed request API: one wire format and one dispatcher
   shared by the CLI subcommands, the [msts serve] daemon and programmatic
   callers (docs/API.md). *)
module Api = Api

(* Multicore batch solving: a fixed-size domain pool with a sharded work
   queue, and the batch driver with its shared LRU solve cache. *)
module Pool = Msts_pool.Pool
module Batch = Msts_pool.Batch

(* Platforms *)
module Chain = Msts_platform.Chain
module Fork = Msts_platform.Fork
module Spider = Msts_platform.Spider
module Tree = Msts_platform.Tree
module Generator = Msts_platform.Generator
module Platform_format = Msts_platform.Parse
module Dot = Msts_platform.Dot

(* Schedules *)
module Comm_vector = Msts_schedule.Comm_vector
module Columns = Msts_schedule.Columns
module Schedule = Msts_schedule.Schedule
module Spider_schedule = Msts_schedule.Spider_schedule
module Intervals = Msts_schedule.Intervals
module Gantt = Msts_schedule.Gantt
module Svg = Msts_schedule.Svg
module Serial = Msts_schedule.Serial
module Metrics = Msts_schedule.Metrics
module Plan = Msts_schedule.Plan
module Bounds = Msts_schedule.Bounds
module Steady_state = Msts_schedule.Steady_state

(* The paper's algorithms *)
module Chain_algorithm = Msts_chain.Algorithm
module Chain_kernel = Msts_chain.Kernel
module Chain_deadline = Msts_chain.Deadline
module Chain_incremental = Msts_chain.Incremental
module Chain_analysis = Msts_chain.Analysis
module Chain_lemmas = Msts_chain.Lemmas
module Chain_trace = Msts_chain.Trace
module Fork_expansion = Msts_fork.Expansion
module Fork_allocator = Msts_fork.Allocator
module Fork_count = Msts_fork.Moore_hodgson
module Spider_algorithm = Msts_spider.Algorithm
module Spider_trace = Msts_spider.Trace

(* Tree extension (the paper's stated future work); chains and spiders run
   its ASAP sweep, exhaustive search and forward heuristics as trees *)
module Tree_flat = Msts_tree.Flat
module Tree_schedule = Msts_tree.Tree_schedule
module Asap = Msts_tree.Asap
module Tree_heuristics = Msts_tree.Heuristics
module Tree_search = Msts_tree.Search

(* Oracles and baselines *)
module Brute_force = Msts_baseline.Brute_force
module Local_search = Msts_baseline.Local_search

(* Execution substrate *)
module Engine = Msts_sim.Engine
module Netsim = Msts_sim.Netsim
module Fault = Msts_sim.Fault
module Replan = Msts_sim.Replan

(* Typed execution traces, their segment algebra and the compositional
   invariant checker over them (docs/VERIFICATION.md). *)
module Trace = Msts_trace.Trace

(* Observability: spans, counters, histograms, request scopes, sinks,
   Chrome traces; Json doubles as the shared encoder behind every
   [--format=json] CLI output.  Report renders the per-resource measures
   (Metrics) of a planned or executed schedule; Prometheus renders
   counters/histograms as a text exposition (the [msts serve] metrics
   endpoint). *)
module Obs = struct
  include Msts_obs.Obs
  module Report = Msts_sim.Report
  module Prometheus = Msts_obs.Prometheus
end

module Json = Msts_obs.Json

(* Utilities *)
module Prng = Msts_util.Prng
module Stats = Msts_util.Stats
module Table = Msts_util.Table
module Intx = Msts_util.Intx
module Lru = Msts_util.Lru
