(** SVG Gantt rendering.

    Produces a self-contained SVG document: one horizontal lane per
    resource, in the order {!Plan.svg} lists them, one rectangle per busy
    interval, colour-coded by task.  Used by the CLI's [schedule --svg] and
    the examples to produce figures comparable to the paper's Figure 2. *)

val render : ?px_per_unit:float -> horizon:int -> Intervals.lane list -> string
(** SVG of [lanes] over [\[0, horizon)].  [px_per_unit] (default 8.0) is
    the horizontal scale in pixels per time unit. *)

val save : string -> string -> unit
(** [save path svg] writes the document to a file. *)
