(** Small descriptive-statistics toolkit for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0.0 on an empty array. *)

val median : float array -> float
(** Median (average of middle two on even length); 0.0 on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [\[0,100\]], linear interpolation between
    closest ranks; 0.0 on empty input. *)

val min_max : float array -> float * float
(** Smallest and largest sample. @raise Invalid_argument on empty input. *)

val geometric_mean : float array -> float
(** Geometric mean of positive samples; 0.0 on empty input. *)
