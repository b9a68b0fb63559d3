(** Narrated runs of the spider algorithm.

    Records the §7 pipeline for one deadline, read off the one
    {!Algorithm.Ceiling} that also writes the result: each leg's deadline
    schedule size (step 1), the virtual fork (steps 2–3), the allocation
    with its one-port emission order (step 4) and the reversion to leg
    tasks (step 5).  Drives the CLI's [explain] command on spider platforms
    and the tests that pin the pipeline's intermediate artefacts. *)

type step5 = {
  position : int;  (** emission position on the master's port *)
  leg : int;
  leg_task : int;  (** task index within the leg's deadline schedule *)
  emission : int;  (** re-stamped first emission *)
  original_emission : int;  (** the leg schedule's own [C¹] *)
  virtual_work : int;
}

type t = {
  spider : Msts_platform.Spider.t;
  deadline : int;
  leg_tasks : int array;  (** tasks each leg's deadline schedule fits *)
  virtual_nodes : Msts_fork.Expansion.vnode list;  (** allocation order *)
  accepted : step5 list;  (** emission order *)
  result : Msts_schedule.Spider_schedule.t;
}

val run : ?budget:int -> Msts_platform.Spider.t -> deadline:int -> t
(** One ceiling built at [horizon = deadline] (at most [budget] tasks per
    leg), its steps and plan read at [deadline]: the result is
    {!Algorithm.schedule}'s.
    @raise Invalid_argument on a negative deadline or budget. *)

val render : t -> string
(** Multi-line narrative of all five steps. *)

