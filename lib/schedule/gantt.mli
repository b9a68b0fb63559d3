(** ASCII Gantt charts (the textual analogue of the paper's Figure 2).

    One row per resource — each link and each processor of the chain, plus
    the master port for spiders — with time flowing left to right.  Each
    busy slot is filled with the symbol of the task occupying it (1–9, then
    a–z, then [#]).  A dot marks idle time.  When the makespan exceeds
    [width] columns the chart is scaled down; slots that collide under
    scaling keep the earlier task's symbol. *)

val render : ?width:int -> Schedule.t -> string
(** Chart of a chain schedule.  [width] (default 100) caps the number of
    time columns. *)

val render_spider : ?width:int -> Spider_schedule.t -> string
(** Chart of a spider schedule: master port first, then each leg's links and
    processors. *)
