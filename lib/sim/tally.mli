(** A run's histogram samples, tallied where they happen and handed to
    the sinks as one {!Msts_obs.Obs.Samples} event.

    The simulator's samples are simulated durations (event gaps, transfer
    times): few distinct values, many repeats.  A tally keeps each
    distinct value once with its multiplicity, in an open-addressing
    table of ints, so adding a sample reads no clock and allocates
    nothing (the table doubles when half full).  Memory grows with the
    number of distinct values, not with the number of samples.

    A tally does not check for a sink: owners create one only when
    {!Msts_obs.Obs.enabled} holds at the start of a run, so a run with
    no sink installed allocates no tally at all. *)

type t

val create : unit -> t
(** An empty tally; its table is allocated by the first {!add}. *)

val add : t -> int -> unit
(** Count one sample (negative values count as 0, as the aggregating
    sinks clamp them). *)

val emit : t -> string -> unit
(** Hand everything counted since the last [emit] to the sinks as one
    [Samples] event named by the string (values ascending), then empty
    the tally.  Emits nothing when the tally is empty. *)
