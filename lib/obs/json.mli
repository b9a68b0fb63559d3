(** Minimal JSON values: the shared encoder behind every [--format=json]
    CLI output, the wire codec, the Chrome-trace exporter and the bench
    counter dumps.

    Deliberately tiny — no external dependency.  The printer
    escapes strings per RFC 8259; integers print as integers, finite
    floats with enough digits to round-trip, and nan and the infinities
    as [null] (JSON has no spelling for them).  The parser accepts exactly
    the documents the printer produces (plus whitespace and any standard
    JSON), so a written trace can be re-read and validated without another
    library.

    Both directions are on the serve daemon's hot path and allocate little.
    There is one printer, {!Writer}: a growable byte buffer, reused per
    domain, that copies unescaped runs whole and writes integers in place.
    {!to_string} walks a tree into it; hot callers write their documents
    into it directly without building a tree.  The scanner reads bytes in
    place, takes a string without escapes as one [String.sub] and reads
    integers of up to 18 digits inline.  Neither keeps state shared
    between domains, so both are safe to call from several domains at
    once.  Error offsets and messages are those of a plain
    recursive-descent reading; test/test_json.ml checks both directions
    byte for byte against that earlier implementation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** The one printer: a growable byte writer.  Every [to_string] output is
    produced by walking its tree through {!Writer.value}, so a document
    written piece by piece with the same calls is byte-identical to the
    tree's printing. *)
module Writer : sig
  type json := t
  type t

  val to_string : (t -> unit) -> string
  (** [to_string f] runs [f] on this domain's scratch writer and returns
      what it wrote.  The scratch buffer is reused by the next call on the
      same domain; a nested call gets a fresh writer.  Safe to call from
      several domains at once. *)

  val char : t -> char -> unit
  val raw : t -> string -> unit
  (** Bytes copied verbatim: JSON punctuation and field names that need
      no escaping. *)

  val string : t -> string -> unit
  (** A JSON string literal, quoted and escaped. *)

  val int : t -> int -> unit

  val value : ?pretty:bool -> t -> json -> unit
  (** The compact (or, with [pretty], two-space indented) printing of a
      tree, spliced in at the current position.  Pretty indentation
      starts at depth 0. *)
end

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
