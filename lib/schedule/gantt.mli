(** ASCII Gantt charts (the textual analogue of the paper's Figure 2).

    One row per lane — each resource of the plan, in the order
    {!Plan.gantt} lists them — with time flowing left to right.  Each busy slot is filled with
    the symbol of the task occupying it (1–9, then a–z, then [#]).  A dot
    marks idle time.  When the horizon exceeds [width] columns the chart is
    scaled down; slots that collide under scaling keep the earlier task's
    symbol. *)

val render : ?width:int -> horizon:int -> Intervals.lane list -> string
(** Chart of [lanes] over [\[0, horizon)].  [width] (default 100) caps the
    number of time columns. *)
