(** Small descriptive-statistics toolkit for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0.0 on an empty array. *)

val min_max : float array -> float * float
(** Smallest and largest sample. @raise Invalid_argument on empty input. *)

val geometric_mean : float array -> float
(** Geometric mean of positive samples; 0.0 on empty input. *)
