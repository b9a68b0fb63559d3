(** Executable statements of the paper's structural lemmas.

    The optimality proof (§4–5) rests on two properties of the construction.
    These checkers re-state them as decidable predicates so the test suite
    can exercise them on thousands of random instances — a bug in the
    candidate computation or in Definition 3's order would surface here
    before it surfaced as a lost optimality case. *)

val check_no_crossing_throughout : Msts_platform.Chain.t -> int -> bool
(** Lemma 1 ("no crossing", Figure 4): run the full construction for [n]
    tasks and check, at every step, that for the state's candidates,
    whenever [ᵏC ≺ ˡC], every common suffix satisfies
    [{ᵏC_q..ᵏC_k} ≺ {ˡC_q..ˡC_l}]. *)

val subchain_projection : Msts_platform.Chain.t -> int -> bool
(** Lemma 2: the tasks with [P(i) ≥ 2] of the [n]-task schedule, re-read on
    the sub-chain [(cᵢ,wᵢ)ᵢ≥₂], form {e the} schedule our algorithm produces
    for that many tasks on the sub-chain, up to a time shift.  Vacuously
    true on single-processor chains. *)

val incremental_suffix : Msts_platform.Chain.t -> int -> bool
(** The property behind Lemma 4: the optimal [m]-task schedule is the
    [m] latest tasks of the optimal [n]-task schedule, for every [m ≤ n]
    (modulo shift) — the algorithm builds solutions incrementally from the
    end. *)
