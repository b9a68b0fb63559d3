(** Per-resource utilization report of an executed (or planned) schedule.

    The one-port model makes two resources the whole story: the master's
    single outgoing port and each link/processor down the legs.  The
    accounting is {!Msts_schedule.Metrics}' one pass — typically over the
    {e realized} schedule out of {!Netsim.execute}; this module renders it:

    - the master port's busy time and saturation (the quantity the paper's
      hull vector tracks);
    - per-link busy time and busy fraction;
    - per-processor {e compute} / {e starved} / {e idle} breakdown, which
      sums to the makespan exactly for every processor (the test suite
      asserts it).

    Surfaced on the command line as [msts report]. *)

type t = Msts_schedule.Metrics.t

val of_execution : Netsim.execution_report -> t
(** Report of the {e realized} schedule. *)

val summary : t -> string
(** Multi-line human-readable report (deterministic: simulated time
    only). *)

val to_json : t -> Msts_obs.Json.t
(** [{"tasks", "makespan", "master_port": {busy, busy_pct},
      "legs": [{leg, nodes: [{depth, link_busy, link_busy_pct, tasks,
      compute, starved, idle, cpu_busy_pct}]}]}]. *)
