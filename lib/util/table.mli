(** Plain-text and CSV table rendering for the experiment harness.

    Every experiment in [bench/main.ml] prints its results through this
    module so that tables share one visual format and can also be exported
    as CSV for external plotting. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity does not match the
    header. *)

val title : t -> string
val columns : t -> string list

val rows : t -> string list list
(** Rows in insertion order — the accessors feed the shared JSON encoder
    so tabular CLI reports render uniformly in both formats. *)

val render : t -> string
(** Box-drawing text rendering with the title on top. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes fields containing commas or quotes). *)

val cell_float : float -> string
(** Standard float formatting used across experiments ("%.3f"). *)
