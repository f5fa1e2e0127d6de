(** Named counters, gauges and histograms for the routing stack.

    Instruments are registered once in a global registry (typically at
    module initialization: [let c = Metrics.counter "hk_calls"]) and
    updated through their handles.  Updates are guarded by a global
    enable flag, so with collection off every update is a single branch —
    safe to leave in hot loops.  Registration itself is always allowed;
    re-registering a name returns the existing instrument.

    {b Domain safety} (DESIGN.md §13): every operation may be called from
    any domain.  Counter and gauge updates are lock-free atomics;
    histogram observations take a per-instrument mutex so
    (buckets, count, sum) can never tear; registration and the
    whole-registry operations ({!to_json}, {!to_prometheus}, {!reset},
    {!find_counter}) serialize on one registry lock.  Snapshots taken
    while other domains update are consistent per instrument (each
    histogram is copied under its own lock), not across instruments.

    Metric names follow the same snake_case schema as span names (see
    DESIGN.md §8). *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
(** Register (or look up) a monotonically increasing integer counter.
    [help] is a one-line description used by {!to_prometheus}; the first
    registration to supply one wins.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : ?help:string -> string -> gauge
(** Register (or look up) a last-value-wins float gauge. *)

val histogram : ?help:string -> ?buckets:float array -> string -> histogram
(** Register (or look up) a histogram.  [buckets] are strictly increasing
    upper bounds; observations above the last bound land in an implicit
    overflow bucket.  Default: powers of two from 1 to 1024.  On lookup of
    an existing histogram, [buckets] is ignored. *)

val latency_buckets : float array
(** Geometric 1-2.5-5 bounds from 0.05 to 10000, intended for
    millisecond-valued histograms ([*_ms]): resolves 50µs at the low end
    and 10s at the high end. *)

(** {2 Updates (single branch when disabled)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {2 Collection control} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered instrument (registrations are kept). *)

(** {2 Reading} *)

val value : counter -> int
val gauge_value : gauge -> float option
(** [None] until the first {!set} (or after {!reset}). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** Per-bucket (non-cumulative) counts as [(upper_bound, count)] pairs;
    the final pair has bound [infinity] (the overflow bucket). *)

val find_counter : string -> counter option
(** Look up a counter without registering it. *)

val to_json : unit -> Json.t
(** Snapshot of the whole registry:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}].
    Instruments appear in registration order; gauges never set are
    omitted. *)

val to_prometheus : unit -> string
(** Prometheus text-format exposition of the whole registry.  Each
    instrument gets [# HELP] and [# TYPE] lines; histograms are emitted
    as cumulative [name_bucket{le="..."}] series ending with
    [le="+Inf"], followed by [name_sum] and [name_count].  Gauges never
    set are omitted.  Instruments appear in registration order. *)
