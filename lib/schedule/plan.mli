(** The unified plan: one polymorphic result type covering both schedule
    shapes the algorithms produce.

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

val check : ?require_nonnegative:bool -> t -> string list
(** Feasibility audit; [[]] means feasible. *)

val gantt : ?width:int -> t -> string
(** ASCII Gantt chart. *)

val svg : t -> string
(** SVG Gantt chart. *)

val serialize : t -> string
(** Machine-readable form ({!Serial}). *)

val to_csv : t -> string
(** Per-task CSV table ({!Serial}). *)
