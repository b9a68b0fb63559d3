(** The int columns every schedule is stored in (paper Definition 1).

    Task [i] (0-based in this module; the schedules number tasks from 1)
    has a leg, a start date T(i) and an emission vector C(i):
    - [legs.(i)] is its leg (on a tree, its node), and [legs] is [[||]]
      when every task is on leg 1 (a chain, or any one-leg spider);
    - [starts.(i)] is T(i);
    - [offsets] has [n + 1] values, from 0 to [Array.length emissions]:
      C(i) is [emissions.(offsets.(i) .. offsets.(i+1) - 1)].  Its length
      is the task's depth on its leg (on a chain, its processor P(i)), so
      no column stores the depth.

    That is four blocks and [3 + depth] words a task on a spider of
    several legs or a tree, three blocks and [2 + P(i)] words a task on a
    chain.
    A schedule never writes its columns after construction, so schedules
    derived from one another (a shift, a chain's spider view) share the
    columns they do not change. *)

type t = private {
  legs : int array;
  starts : int array;
  offsets : int array;
  emissions : int array;
}

val make :
  who:string ->
  legs:int array ->
  starts:int array ->
  offsets:int array ->
  emissions:int array ->
  t
(** The columns as given, not copied: the caller hands them over.  Checks
    only their shape ([legs] of length [n] or empty, [starts] of length
    [n], [offsets] from 0 to the length of [emissions]); each schedule
    checks every task's leg and depth (an offset difference, so a depth
    of at least 1 everywhere also orders the offsets) against its
    platform.
    @raise Invalid_argument, the message prefixed [who ^ ": "]. *)

val on_leg_one : t -> t
(** The same columns without the leg column: every task on leg 1. *)

val leg : t -> int -> int

val depth : t -> int -> int
(** The length of C(i). *)

val length : t -> int
(** Number of tasks. *)

val emission : who:string -> t -> int -> int -> int
(** [emission ~who c i k] is C^k(i), [k] in [1..depth c i].
    @raise Invalid_argument outside that range. *)

val comms : t -> int -> int array
(** A fresh copy of C(i). *)

val shift : t -> delta:int -> t
(** Every start and emission moved by [delta]; legs and offsets shared. *)

val filter : t -> keep:(int -> bool) -> t
(** The tasks whose 1-based index satisfies [keep], in order.  Like
    {!append}, it checks nothing: the schedules hand what it builds back
    to their validating constructors. *)

val append : t -> t -> t
(** The tasks of both, first then second.  The leg column is dropped
    only when both keep none. *)

val equal : t -> t -> bool
