(** Scripted online sessions under the discrete-event engine.

    The driver is the rendezvous between the anytime scheduler and the
    simulator: a script of timed actions (arrivals, deadline extensions,
    processor degradations) runs on {!Msts.Engine}'s clock; before each
    action the session's execution frontier is pulled up to the simulated
    time, freezing the placements execution has caught up with.  When a
    {!Msts.Trace} recorder is installed, every placement emits its
    transfer and compute events {e as it freezes} — so the recorded trace
    is exactly the executed (immutable) prefix, and the PR-6 invariant
    checker audits it like any other execution.  After the script drains,
    the clock runs out to the final deadline, freezing everything. *)

type action =
  | Submit of int  (** this many tasks arrive *)
  | Extend of int  (** grow the deadline to this date *)
  | Degrade of { at : int; work_factor : int }
      (** processor [at] slows; unfrozen tasks re-place *)

type event = { at : int; action : action }
(** One scripted action at an absolute simulated time ([at >= 0]). *)

type outcome = {
  session : Online.t;  (** the session, fully frozen — inspectable *)
  plan : Msts.Plan.t;  (** final plan (equals [frozen_plan] here) *)
  frozen_plan : Msts.Plan.t;  (** what actually executed *)
  placed : int;
  rejected : int;
  frozen : int;
  refusals : (int * string) list;
      (** refused extends/degrades, with the simulated time of each *)
}

val run :
  ?capacity:int ->
  ?emit:(Online.delta -> unit) ->
  Msts.Chain.t ->
  deadline:int ->
  event list ->
  outcome
(** Execute a script.  Events may share an instant (applied in list
    order); refused control actions are collected, not raised.
    @raise Invalid_argument on an event before time 0. *)
