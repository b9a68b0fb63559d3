(** Literal transcription of the paper's Figure 3 pseudo-code.

    [Msts.Chain_algorithm] is the production implementation (arrays, no
    intermediate allocation, shared candidate machinery).  This module is a deliberate,
    line-by-line transcription of the pseudo-code as printed — including
    its quirks: communication vectors initialised to an all-zero vector of
    length [p], candidate replacement by strict [≺] comparison while
    scanning [k = p downto 1], and the final shift by [C¹₁].  It exists
    only for differential testing: on every input the two implementations
    must produce the same schedule, which ties the code base back to the
    paper's own text.

    It lives beside the tests, not in the library: it allocates lists per
    candidate and is noticeably slower.  test/stress and the bench-impl
    experiment reach it with [copy_files]. *)

val schedule : Msts.Chain.t -> int -> Msts.Schedule.t
(** Figure 3, verbatim.  @raise Invalid_argument if [n < 0]. *)
