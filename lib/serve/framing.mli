(** JSONL framing for the {!Server}'s select loop, with no sockets in
    sight: splitting read chunks into frames, and draining queued reply
    frames into a writer that may take less than it is offered.

    Copies are bounded per byte.  An input byte is scanned for ['\n']
    once; a frame that lies inside one read is copied once (out of the
    read chunk), and a frame spanning reads twice (its earlier part into
    the connection's pending line, then every part into the frame).  A
    reply is written from its own string; only replies shorter than
    4 KiB are copied, to gather consecutive ones into one write. *)

(** {2 Input} *)

type input
(** One connection's unfinished line. *)

val input : unit -> input
(** Nothing pending.  The buffer grows only when a line spans reads. *)

val feed : input -> Bytes.t -> int -> int -> (string -> unit) -> unit
(** [feed i chunk off n frame] hands every line completed by
    [chunk.[off .. off + n - 1]] to [frame], in order and without its
    ['\n'], skipping lines that are empty or all whitespace (as
    [String.trim] reads it).  Bytes after the last ['\n'] stay pending
    for the next call.  [chunk] is not retained, so the caller may reuse
    it.  The pending buffer keeps its capacity between lines up to
    1 MiB, so per-connection memory is the unfinished line plus at most
    the capacity of a recent long line. *)

val pending : input -> int
(** Bytes of the unfinished line. *)

(** {2 Output} *)

type output
(** One connection's unsent replies: a FIFO of strings and an offset
    into its head. *)

val output : unit -> output
val push : output -> string -> unit
val is_empty : output -> bool

val flush : output -> write:(Bytes.t -> int -> int -> int) -> unit
(** Offer the queued bytes, in order, to [write buf off len], which
    returns how many of them it took (it must not modify [buf]).  A head
    of 4 KiB or more, or a lone reply, is offered in place; a run of
    shorter replies is gathered into one buffer shared by every output
    (so [flush] is for one domain) and offered as one call.  Stops
    when the queue is empty or [write] took less than offered. *)
