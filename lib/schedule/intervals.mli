(** Disjointness checking for tagged busy intervals.

    A resource (a link, a processor, the master's outgoing port) is a
    sequence of half-open busy intervals [\[start, start+duration)]; the
    one-port and one-task-at-a-time rules say these intervals must be
    pairwise disjoint. *)

type 'tag interval = { start : int; duration : int; tag : 'tag }

val overlap_witness : 'tag interval list -> ('tag interval * 'tag interval) option
(** First overlapping pair in start order, if any; [None] means pairwise
    disjoint.  Zero-duration intervals never overlap anything. *)

type lane = { label : string; intervals : int interval list }
(** One row of a Gantt chart: a resource's name and its busy intervals,
    tagged by task index, in task order ({!Plan.gantt} and {!Plan.svg}
    build them). *)
