(** The unified plan: one polymorphic result type covering both schedule
    shapes the algorithms produce.  Both shapes store their tasks as int
    columns ({!Columns}): a chain plan in three blocks, [2 + P(i)] words
    a task; a spider plan in four, [3 + depth].

    [Msts.Solve] returns it, [Msts.Netsim.execute] consumes it, and the
    CLI renders every subcommand through it — so chains and spiders flow
    through one code path end to end. *)

type t =
  | Chain of Schedule.t
  | Spider of Spider_schedule.t

val makespan : t -> int
val task_count : t -> int

val to_string : t -> string
(** The shape's native human rendering ({!Schedule.to_string} /
    {!Spider_schedule.to_string}). *)

val equal : t -> t -> bool
(** Structural equality: same shape, same platform, same dates — the
    invariant the batch solver's differential tests enforce against the
    sequential path.  A chain plan is never equal to a spider plan, even
    its own one-leg promotion. *)

val to_spider : t -> Spider_schedule.t
(** The plan as a spider schedule: a chain plan is the one-leg spider of
    {!Spider_schedule.of_chain_schedule}, which shares the chain's int
    columns ({!Columns}) rather than copying them, so the view costs a
    few words whatever the task count.  The audit, the measures, the
    charts, the simulator and the planned traces all read this view,
    through the column accessors ({!Spider_schedule.leg},
    {!Spider_schedule.depth}, {!Spider_schedule.start},
    {!Spider_schedule.emission}), not through rows. *)

val check : ?require_nonnegative:bool -> t -> string list
(** The Definition 1 audit ({!Spider_schedule.violations}); [[]] means
    feasible.  A chain plan's messages carry no leg prefix, and its master
    port (its link 1) is not audited twice. *)

val gantt : ?width:int -> t -> string
(** ASCII Gantt chart ({!Gantt.render}).  Its rows, one per resource, are
    for a chain ["link k"] and ["proc k"] down the chain; for a spider
    ["master port"], then ["leg l link k"] and ["leg l proc k"] leg by
    leg. *)

val svg : t -> string
(** SVG Gantt chart ({!Svg.render}) of the same rows as {!gantt}. *)

val serialize : t -> string
(** Machine-readable form ({!Serial}). *)

val to_csv : t -> string
(** Per-task CSV table ({!Serial}). *)
