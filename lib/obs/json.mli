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
    It writes compact bytes only: {!to_string} walks a tree into it; hot
    callers write their documents into it directly without building a
    tree.  Indented output is one pass over those bytes
    ({!output_pretty}, [to_string ~pretty:true]), so a document written
    without a tree prints indented without one too.
    There is one lexer, {!Reader}: a pull reader over the bytes in
    place, which reads integers of up to 18 digits inline and leaves a
    string as a span of the document until a caller asks for its text.  {!parse} builds a tree
    with it; the request decoder reads frames with it directly.  Neither
    keeps state shared between domains, so both are safe to call from
    several domains at once.  Error offsets and messages are those of a
    plain recursive-descent reading; test/test_json.ml checks both
    directions byte for byte against that earlier implementation. *)

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
    tree's compact printing. *)
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

  val position : t -> int
  (** Bytes written so far: where the next byte goes. *)

  val repeat : t -> int -> int -> unit
  (** [repeat w at n] appends a copy of the [n] bytes already written at
      [at], so a run needed again is copied rather than rendered anew.
      @raise Invalid_argument unless [0 <= at] and [at + n <= position w]. *)

  val value : t -> json -> unit
  (** The compact printing of a tree, spliced in at the current
      position. *)
end

val output_pretty : out_channel -> (Writer.t -> unit) -> unit
(** [output_pretty oc f] writes onto [oc] the bytes [f] writes into a
    scratch {!Writer}, indented with two spaces in one pass over them: a
    newline and indent after ['{'], ['\['] and [','] and before a closing
    bracket, [": "] after a key; ["{}"], ["\[\]"] and strings are copied
    as they are.  The pass reads those bytes in place and puts its runs
    on the channel, so neither the compact bytes nor the indented text is
    copied into a string. *)

val to_string : ?pretty:bool -> t -> string
(** Serialise.  [pretty] (default false) indents the compact printing
    by the pass of {!output_pretty}.  A non-finite [Float] prints as
    [null], so the output always parses. *)

(** The one lexer: a pull reader over a document's bytes, the mirror of
    {!Writer}.  A caller asks for the next value's kind with {!peek} and
    reads it with the matching call — containers member by member, a
    string as a span of the document compared and hashed in place, a
    number through {!number} and {!int_value} — or validates and drops
    it with {!skip}.  Reading allocates nothing but what a caller asks to
    keep ({!span_text}, {!spelling}), the float of a non-integer number,
    and the text {!span_is} unescapes to compare a span with an escape.

    Every reading function raises on the first malformed byte; {!read}
    turns that into ["byte N: message"].  Offsets and messages are those
    of a plain recursive-descent reading, whichever functions read the
    bytes: a value skipped fails where reading it would have.  {!parse}
    is the tree built by reading every value. *)
module Reader : sig
  type t

  val read : string -> (t -> 'a) -> ('a, string) result
  (** [read text f] runs [f] on a reader at the start of [text].  A
      syntax error raised while [f] reads comes back as
      [Error "byte N: message"]; [f] should end with {!finish}. *)

  val finish : t -> unit
  (** Only whitespace may follow ("trailing garbage"). *)

  val position : t -> int
  val seek : t -> int -> unit
  (** Where the reader is, and a move back there: a value read once may be
      read again from the position before it. *)

  val peek : t -> [ `Object | `Array | `String | `Number | `Bool | `Null ]
  (** Skips whitespace and names the next value by its first byte,
      without consuming it; fails at the end of the text.  A byte that
      starts no other kind is a [`Number], and reading it says what is
      wrong. *)

  val skip : t -> unit
  (** Reads the next value, whatever it is, and drops it. *)

  val first_member : t -> bool
  (** On an object's ['{']: reads it and the first member's key, which is
      then the current span (below).  [false] for an empty object, which
      is then consumed.  The member's value is read next. *)

  val next_member : t -> bool
  (** After a member's value: [true] and the next key, or [false] at the
      closing ['}']. *)

  val first_item : t -> bool
  (** On an array's ['[']: [true] when an item follows, to be read next;
      [false] for an empty array, which is then consumed. *)

  val next_item : t -> bool
  (** After an item: [true] when another follows, [false] at [']']. *)

  val span : t -> unit
  (** Reads a string, checking its escapes, and makes it the current
      span without unescaping it. *)

  val span_text : t -> string
  (** The current span, unescaped. *)

  val span_is : t -> string -> bool
  (** [span_is r s]: the current span unescapes to [s].  In place when
      the span has no escape. *)

  val spelling : t -> string
  (** The current span as written: its bytes between the quotes, escapes
      and all.  Two spans spelled alike have the same text; two with the
      same text may be spelled differently. *)

  val spelled : t -> string -> bool
  (** [spelled r s]: the current span is written as [s].  In place. *)

  val spelling_hash : t -> int
  (** A non-negative hash of the current span as written.  In place. *)

  val hash_ahead : t -> int -> int
  (** [hash_ahead r n]: a non-negative hash of the [n] bytes from the
      current position, or of those left when fewer remain.  In place;
      nothing is read. *)

  val repeats : t -> int -> int -> bool
  (** [repeats r at n]: the [n] bytes from the current position are the
      [n] bytes at [at].  In place, stopping at the first difference;
      nothing is read.  With {!seek} it lets a caller that has read a
      value once recognise its bytes again and step over them. *)

  val number : t -> bool
  (** Reads a number: [true] for an integer, whose value is then
      {!int_value}; [false] for a float (a fraction, an exponent, or an
      integer beyond [int]), whose value only {!Json.parse} reads. *)

  val int_value : t -> int

  val bool : t -> bool
end

val parse : string -> (t, string) result
(** The tree of a JSON document, read through {!Reader}: errors are its
    ["byte N: message"].  Numbers with a fraction or exponent become
    [Float], anything else [Int]. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] when [json] is an
    object. *)

val of_table :
  title:string -> columns:string list -> rows:string list list -> t
(** The uniform JSON shape for every tabular CLI report:
    [{"title": ..., "columns": [...], "rows": [[...], ...]}].  Cells stay
    strings — they come from already-formatted table renderers. *)
