(** Session registry behind the [online-*] request frames.

    One [Service.t] owns every open online session of a process — the
    [msts serve] engine holds one, and [msts online] drives one locally —
    so the JSONL transcripts of the daemon and the offline CLI are
    byte-identical: both funnel through {!exec}.

    Online operations are stateful and cheap (one O(p) sweep per
    submitted task), so the engine answers them synchronously instead of
    queueing them behind batch solves; during a SIGTERM drain they keep
    being answered, which is what guarantees zero dropped deltas.

    Each session is opened under a fresh {!Msts.Obs.Scope} and every
    later operation on it re-enters that scope, so scope-aware sinks
    attribute the [online.*] telemetry per session. *)

type t

val create : ?max_sessions:int -> unit -> t
(** [max_sessions] (default 64) bounds concurrent sessions; further
    [online-open]s are refused with an [overloaded] error. *)

val handles : Msts.Api.op -> bool
(** True exactly on the [Online_*] operations. *)

val sessions : t -> int
(** Currently open sessions. *)

val exec : t -> Msts.Api.op -> (Msts.Json.t, Msts.Api.error) result
(** Apply one online operation.  Deltas ride in the reply payload's
    ["deltas"] list, in emission order (docs/ONLINE.md).  Non-online ops
    return a [bad_request] error. *)
