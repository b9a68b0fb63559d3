(** Scripted mid-run faults for the execution substrate.

    A fault {e trace} is a list of timed events injected into a running
    simulation ({!Netsim.replay_under_faults}, {!Netsim.pull_under_faults}):

    - [Slow_proc]: from that instant the processor's work rate drops — future
      executions take [factor ×] longer and the remaining part of an
      execution in flight is stretched by [factor] (slowdowns compound);
    - [Slow_link]: same for a link's latency (depth 1 is the leg's master
      link, so it stretches the master-port occupancy for that leg);
    - [Drop_transfer]: a transient link fault — the transfer in flight into
      that processor (if any) is aborted and the task re-requests the link
      from the node that still holds it after a backoff of [penalty] time
      units (bounded retries: each event aborts at most one transfer);
    - [Crash_proc]: the processor dies permanently, and — store-and-forward —
      everything deeper on its leg becomes unreachable with it.  Results
      already computed survive; tasks located at (or in transit into) dead
      nodes return to the master, which re-issues them from its own copy of
      the input data.

    Faults take effect at the {e start} of their instant: an operation that
    would complete exactly at time [t] is still hit by a fault at [t]. *)

type event =
  | Slow_proc of { address : Msts_platform.Spider.address; factor : int }
  | Slow_link of { address : Msts_platform.Spider.address; factor : int }
  | Drop_transfer of { address : Msts_platform.Spider.address; penalty : int }
  | Crash_proc of Msts_platform.Spider.address

type timed = { at : int; event : event }

type trace = timed list

val normalize : trace -> trace
(** Stable sort by time — the order executors process events in. *)

val validate : Msts_platform.Spider.t -> trace -> string list
(** Human-readable problems (bad addresses, factors [< 1], negative times or
    penalties).  Empty list = usable against that spider. *)

val to_string : trace -> string
(** One event per line, the same format {!parse} reads. *)

val parse : string -> (trace, string) result
(** Line format: [<time> <kind> <leg> <depth> [<value>]] where [kind] is
    [slow-proc], [slow-link], [drop] or [crash] and [value] is the factor
    (slow), the penalty (drop) or absent (crash).  Blank lines and [#]
    comments are ignored; the result is normalized. *)

val load : string -> (trace, string) result

val random :
  Msts_util.Prng.t -> Msts_platform.Spider.t -> events:int -> horizon:int -> trace
(** Seeded random trace: a mix of slowdowns (factors 2–4), transient drops
    and crashes at uniform times in [0..horizon].  Crashes never kill the
    last surviving processor, so the residual problem stays feasible by
    construction.  @raise Invalid_argument on negative arguments. *)

(** {2 Dynamic platform state}

    What an executor knows mid-run: accumulated slowdown factors and the
    surviving prefix of each leg. *)

type state

val init : Msts_platform.Spider.t -> state

val copy : state -> state

val apply : state -> event -> unit
(** Fold one event into the bookkeeping ([Drop_transfer] is transient and
    leaves the state unchanged). *)

val proc_factor : state -> Msts_platform.Spider.address -> int

val link_factor : state -> Msts_platform.Spider.address -> int

val alive_depth : state -> leg:int -> int
(** Surviving prefix length of a leg (0 = the whole leg is gone). *)

val is_alive : state -> Msts_platform.Spider.address -> bool

val residual : state -> (Msts_platform.Spider.t * int array) option
(** The surviving platform with slowdowns folded into its latencies and
    work times, plus the residual-leg → original-leg map
    ({!Msts_platform.Spider.restrict}).  [None] when no processor
    survives. *)

(** {2 Replanning interface}

    {!Netsim.replay_under_faults} calls a decision hook after every fault
    event; {!Replan} implements the interesting policy. *)

type snapshot = {
  time : int;  (** the fault's instant *)
  state : state;  (** private copy of the dynamic platform state *)
  completed : int list;  (** tasks already executed (results survive) *)
  in_flight : (int * Msts_platform.Spider.address) list;
      (** emitted but unfinished tasks with their current (possibly already
          rerouted) destinations *)
  at_master : (int * Msts_platform.Spider.address) list;
      (** still unemitted tasks in current emission order *)
  remaining : trace;  (** events still to come, normalized order *)
}

type decision =
  | Keep  (** continue blindly (crash rerouting still applies) *)
  | Redirect of (int * Msts_platform.Spider.address) list
      (** replace the master's emission queue: same task set as
          [at_master], new order and destinations *)
