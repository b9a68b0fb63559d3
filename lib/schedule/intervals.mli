(** Disjointness checking for tagged busy intervals.

    A shared primitive of the feasibility checker: a resource (a link, a
    processor, the master's outgoing port) is a sequence of half-open busy
    intervals [\[start, start+duration)]; the one-port and one-task-at-a-time
    rules say these intervals must be pairwise disjoint. *)

type 'tag interval = { start : int; duration : int; tag : 'tag }

val overlap_witness : 'tag interval list -> ('tag interval * 'tag interval) option
(** First overlapping pair in start order, if any; [None] means pairwise
    disjoint.  Zero-duration intervals never overlap anything. *)

val utilisation : 'tag interval list -> horizon:int -> float
(** Fraction of [\[0, horizon)] covered by the intervals (they are assumed
    disjoint); used by the experiment harness to report link/processor
    occupancy. *)
