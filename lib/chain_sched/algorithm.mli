(** The chain algorithm (paper §3) — the core contribution.

    Tasks are scheduled one at a time, {e backwards} from a horizon, and a
    decision is never reconsidered.  Two vectors of length [p] summarise the
    partially built (future) schedule:

    - the {e hull} [h_k]: earliest time at which link [k] is already in use;
    - the {e occupancy} [o_k]: earliest time at which processor [k] is
      already busy.

    For the next task (moving towards time 0) and every target processor
    [k], the latest legal communication vector is
    [v_k = min(o_k − w_k − c_k, h_k − c_k)] and, going back towards the
    master, [v_j = min(v_{j+1} − c_j, h_j − c_j)].  The greatest candidate
    in Definition 3's order wins; hull and occupancy are updated, and the
    final schedule is shifted so that it starts at time 0.

    As printed, the construction costs [O(p²)] per task, [O(n·p²)]
    overall (Theorem 1 proves the result makespan-optimal).  {!schedule}
    and {!makespan} decide the same winner with {!Kernel.sweep} in [O(p)]
    per task; {!candidates}, {!select} and {!place} keep the literal
    scan for step-by-step observers and the selection ablations. *)

type state = {
  hull : int array;  (** [hull.(k-1) = h_k] *)
  occupancy : int array;  (** [occupancy.(k-1) = o_k] *)
}
(** Construction state, exposed for the lemma checkers and the trace. *)

val initial_state : Msts_platform.Chain.t -> horizon:int -> state

val candidates : Msts_platform.Chain.t -> state -> Msts_schedule.Comm_vector.t array
(** All [p] candidates, index [k-1] for processor [k]: [ᵏC(i)], the
    latest communication vector routing the next task to processor [k]
    (length [k]). *)

val select : Msts_schedule.Comm_vector.t array -> int
(** Index (0-based) of the greatest candidate per Definition 3. *)

type step = {
  task : int;  (** task index being placed (paper numbering, 1-based) *)
  chosen_proc : int;
  chosen_vector : Msts_schedule.Comm_vector.t;
  start : int;  (** T(i) before the final shift *)
  all_candidates : Msts_schedule.Comm_vector.t array;
  state_before : state;  (** deep copy *)
}

val place :
  Msts_platform.Chain.t -> state -> task:int -> step
(** Place one task: compute candidates, select, mutate the state, and
    report what happened. *)

val horizon : Msts_platform.Chain.t -> int -> int
(** T∞ = [c₁ + (n−1)·max(w₁,c₁) + w₁] for [n] tasks (0 when [n = 0]). *)

val schedule :
  ?on_step:(step -> unit) ->
  Msts_platform.Chain.t -> int -> Msts_schedule.Schedule.t
(** [schedule chain n] is the paper's algorithm: optimal schedule for [n]
    tasks, normalised to start at time 0, placed by {!Kernel.sweep}.
    [on_step] observes each placement (in construction order, task [n]
    first); installing it switches to the candidate scan of {!place},
    the only construction that materialises full {!step} records.  Both
    produce identical schedules.
    @raise Invalid_argument if [n < 0]. *)

val makespan : Msts_platform.Chain.t -> int -> int
(** Makespan of {!schedule} without materialising the trace, and without
    allocating any per-task vectors at all. *)

val schedule_with_selector :
  select:(Msts_schedule.Comm_vector.t array -> int) ->
  Msts_platform.Chain.t -> int -> Msts_schedule.Schedule.t
(** Same backward construction but with a caller-supplied candidate
    selection rule (0-based index into the candidate array) instead of
    Definition 3's maximum.  The result is feasible by construction for any
    rule; only the paper's rule is optimal.  Used by the ablation benches
    to quantify how much Definition 3's order matters. *)
