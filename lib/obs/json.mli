(** Minimal JSON values: the shared encoder behind every [--format=json]
    CLI output, the Chrome-trace exporter and the bench counter dumps.

    Deliberately tiny — no external dependency, no streaming.  The printer
    escapes strings per RFC 8259; integers print as integers, finite
    floats with enough digits to round-trip, and nan and the infinities
    as [null] (JSON has no spelling for them).  The parser accepts exactly
    the documents the printer produces (plus whitespace and any standard
    JSON), so a written trace can be re-read and validated without another
    library.

    Both directions are on the serve daemon's hot path and allocate little:
    the printer copies unescaped runs whole and writes integers through a
    per-call digit buffer; the scanner reads bytes in place, takes a
    string without escapes as one [String.sub] and reads integers of up to
    18 digits inline.  Neither keeps module-level mutable state, so both
    are safe to call from several domains at once.  Error offsets and
    messages are those of a plain recursive-descent reading;
    test/test_json.ml checks both directions byte for byte against that
    earlier implementation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise.  [pretty] (default false) indents with two spaces.  A
    non-finite [Float] prints as [null], so the output always parses. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for ordinary JSON documents; errors carry a
    byte offset.  Numbers with a fraction or exponent become [Float],
    anything else [Int]. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] when [json] is an
    object. *)

val of_table :
  title:string -> columns:string list -> rows:string list list -> t
(** The uniform JSON shape for every tabular CLI report:
    [{"title": ..., "columns": [...], "rows": [[...], ...]}].  Cells stay
    strings — they come from already-formatted table renderers. *)
