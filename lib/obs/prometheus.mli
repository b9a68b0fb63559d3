(** Prometheus text exposition (format 0.0.4) for {!Obs} aggregates.

    Metric names are mangled to the Prometheus charset ([.] and any other
    invalid character become [_]) and prefixed with [msts_]; counters gain
    the conventional [_total] suffix.  Histograms are rendered with
    cumulative [_bucket{le="..."}] samples derived from the log-bucketed
    layout ({!Obs.Histogram.buckets}): each non-empty bucket's inclusive
    upper bound is a [le] boundary, counts are monotone by construction,
    and the [+Inf] bucket equals [_count].  Every family carries [# HELP]
    and [# TYPE] lines; families are sorted by name so successive scrapes
    diff cleanly. *)

val render :
  ?counters:(string * int) list ->
  ?gauges:(string * int) list ->
  ?histograms:(string * Obs.Histogram.t) list ->
  unit ->
  string
(** Render one exposition document (empty string when nothing to show).
    Input names are raw [Obs] names ([subsystem.metric]); duplicates
    within a list, or a name appearing both as counter and histogram,
    would render duplicate families — callers keep the lists disjoint. *)

val of_memory : ?gauges:(string * int) list -> Obs.Memory.t -> string
(** Convenience: render a {!Obs.Memory} sink's counter totals and
    recorded-value histograms, plus caller-supplied gauges.  Documented in
    docs/OBSERVABILITY.md. *)
