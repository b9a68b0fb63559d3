(** Blocking JSONL client for a running [msts serve] daemon — the engine
    behind [msts call], the cram tests and the serve benches. *)

type t

val connect : string -> (t, string) result
(** Connect to the daemon's Unix-domain socket. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Write one newline-terminated frame and flush. *)

val recv_line : t -> string option
(** Read one frame; [None] once the daemon closed the connection. *)
