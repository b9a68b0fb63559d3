(** The [msts serve] daemon: a Unix-domain-socket front-end to
    {!Engine}.

    Single-threaded by design — one [select] loop multiplexes the listen
    socket and every client over non-blocking descriptors, and the solves
    themselves fan out on the engine's domain pool.  Framing is JSONL:
    one compact JSON request per line in, one response line out, in
    request order per connection (see docs/API.md).

    Shutdown protocol, both for SIGTERM/SIGINT and for a [shutdown]
    request: perform a final read sweep over every connection (frames
    already written by clients are in-flight work and are {e never}
    dropped), stop admitting, drain the queue to completion, flush every
    response out, then close, unlink the socket and exit 0.  A malformed
    frame never closes a connection — it is answered with a structured
    [`bad_request] error.  A client that shuts down its write end is no
    longer read; its connection closes once every frame it sent has been
    answered and the replies written.

    Telemetry: with [telemetry = Some path] every [Obs] event streams to
    [path] as JSONL ({!Msts.Obs.Streaming}); a last-N {!Msts.Obs.Ring}
    rides along regardless and its tail is dumped to stderr if the loop
    dies on an uncaught exception (exit 125).  The engine's metrics sink
    ({!Engine.metrics_sink}) always joins the tee, feeding the live
    Prometheus exposition: the [metrics] control op, and — with
    [metrics_out = Some file] — a periodic atomic rewrite of [file]
    (write to [file.tmp], rename; a scraper never reads a torn document)
    at boot, before the socket is bound (so a client that sees the socket
    also finds the file), every [metrics_interval] seconds, and once more
    after the final drain. *)

type config = {
  socket_path : string;
  engine : Engine.config;
  telemetry : string option;  (** stream Obs events to this JSONL file *)
  ring_capacity : int;  (** post-mortem ring size *)
  quiet : bool;  (** suppress the readiness / shutdown notices on stdout *)
  metrics_out : string option;
      (** atomically rewrite this file with the Prometheus exposition *)
  metrics_interval : float;  (** seconds between rewrites (must be > 0) *)
}

val default_config : socket_path:string -> config
(** No telemetry, no metrics file, ring of 1024, engine defaults,
    [metrics_interval = 1.0]. *)

val run : config -> int
(** Bind, announce readiness ("listening on ..." on stdout unless
    [quiet]), serve until a shutdown request or SIGTERM/SIGINT, drain,
    and return the process exit code (0 on a clean drain, 2 when the
    socket cannot be bound, 125 on an uncaught exception). *)
