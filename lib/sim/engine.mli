(** Minimal deterministic discrete-event engine.

    Integer simulated time, events executed in (time, insertion) order so
    that runs are reproducible.  An event is an int {e code} the caller
    chooses — netsim packs a kind, an object index and a generation stamp
    into it ({!Netsim}), [Online.Driver] the index of a script event —
    and {!run} hands each code to one handler.  The queue is a binary
    heap over three int arrays (time, rank, code): scheduling an event
    allocates nothing once the arrays have grown.  The handler may
    schedule further events at the current time or later; scheduling in
    the past is a programming error and raises. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulated time (0 before the first event). *)

val schedule_at : t -> int -> int -> unit
(** [schedule_at t time code] queues event [code] at an absolute time.
    @raise Invalid_argument if the time is before {!now} or the code is
    negative. *)

val claim : t -> int
(** Take the tie-break rank an event scheduled right now would get.  An
    event scheduled later with {!schedule_claimed} orders among same-time
    events as if it had been scheduled at the claim: a FIFO resource
    claims a rank when an operation is requested and schedules its start
    once it knows the date, so operations that become startable at the
    same instant start in request order. *)

val schedule_claimed : t -> int -> claim:int -> int -> unit
(** {!schedule_at} with a rank from {!claim}.  @raise Invalid_argument if
    the time is before {!now}. *)

val run : ?max_events:int -> t -> (int -> unit) -> unit
(** [run t handle] pops events in order and calls [handle code] on each
    until the queue is empty.  [max_events] (default: no
    bound) is a progress guard for adversarial workloads — fuzzing, fault
    interleavings — where a buggy callback could schedule events forever:
    once the budget is spent with events still queued, the run fails with
    a diagnostic naming the simulated time and queue depth instead of
    hanging.  When it returns or raises, it counts the events it
    executed as one [engine.events] increment and hands their
    [engine.event_gap_us] samples (the simulated-clock advance each event
    caused, tallied as exact value counts) to the sinks as one
    [Samples] event.  With no sink installed at the start of the run
    nothing is tallied.  @raise Invalid_argument if [max_events < 1];
    @raise Failure when the budget is exhausted. *)
