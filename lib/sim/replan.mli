(** Online replanning against a fault trace.

    {!replay} drives {!Netsim.replay_under_faults} with a non-trivial
    decision hook: at every fault event it re-runs the optimal spider
    algorithm on the {e residual} platform ({!Fault.residual} — surviving
    leg prefixes with accumulated slowdowns folded in) for the tasks still
    at the master, then decides between keeping course and adopting the
    redirect by simulating both continuations to the end of the known
    trace and comparing realised makespans.

    Keeping course is always one of the compared continuations, so the
    realised makespan is never worse than the blind static replay's on the
    same trace — the test suite checks this inequality on random traces.
    The lookahead is clairvoyant about the scripted future (this is an
    upper bound on what an online policy can know), but each continuation
    is an honest execution: transfers still retry, crashed-leg tasks still
    return to the master. *)

type outcome = {
  report : Netsim.fault_report;  (** the realised execution *)
  replans : int;  (** fault events where the redirect was adopted *)
  considered : int;  (** fault events where a redirect existed at all *)
  final_intent : Msts_schedule.Spider_schedule.t option;
      (** at the last adopted replan: the original plan's tasks for
          already-emitted tasks spliced with the residual plan re-anchored
          at the fault's instant ({!Msts_schedule.Spider_schedule.shift} /
          [filter_tasks] / [concat]); [None] when no replan was adopted *)
}

val replay : ?trace:Fault.trace -> Msts_schedule.Spider_schedule.t -> outcome
(** @raise Invalid_argument as {!Netsim.replay_under_faults} (bad trace,
    or a trace that kills every processor while tasks remain). *)
