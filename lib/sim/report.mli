(** Per-resource utilization report of an executed (or planned) schedule.

    The one-port model makes two resources the whole story: the master's
    single outgoing port and each link/processor down the legs.  This
    module folds a spider schedule — typically the {e realized} schedule
    out of {!Netsim.execute} — into an accounting of where the makespan
    went, resource by resource:

    - the master port's busy time and saturation (the quantity the paper's
      hull vector tracks);
    - per-link busy time and busy fraction;
    - per-processor {e compute} / {e starved} / {e idle} breakdown, where
      "starved" is idle time spent before a subsequent execution (waiting
      for input) and "idle" the tail after the processor's last task.  The
      three parts sum to the makespan {e exactly} for every processor (the
      test suite asserts it).

    Surfaced on the command line as [msts report]. *)

type resource = { busy : int; fraction : float  (** busy / makespan *) }

type processor = {
  tasks : int;  (** tasks executed here *)
  compute : int;  (** busy executing *)
  starved : int;  (** idle before a later execution — waiting for data *)
  idle : int;  (** idle after the last execution (or always, if unused) *)
  fraction : float;  (** compute / makespan *)
}

type node = {
  address : Msts_platform.Spider.address;
  link : resource;  (** the link {e into} this node *)
  proc : processor;
}

type t = {
  tasks : int;
  makespan : int;
  master_port : resource;
  nodes : node list;  (** address order: leg-major, shallow first *)
}

val of_plan : Msts_schedule.Plan.t -> t
(** Chain plans are viewed as one-leg spiders. *)

val of_execution : Netsim.execution_report -> t
(** Report of the {e realized} schedule. *)

val summary : t -> string
(** Multi-line human-readable report (deterministic: simulated time
    only). *)

val to_json : t -> Msts_obs.Json.t
(** [{"tasks", "makespan", "master_port": {busy, busy_pct},
      "legs": [{leg, nodes: [{depth, link_busy, link_busy_pct, tasks,
      compute, starved, idle, cpu_busy_pct}]}]}]. *)
