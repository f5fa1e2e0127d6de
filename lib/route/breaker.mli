(** Per-engine circuit breakers for the verified-routing ladder.

    A breaker watches a rolling window of an engine's outcomes (the
    engine raising, or the schedule failing verification).  When
    failures in the window reach the threshold it {e trips open}:
    requests skip the engine entirely and go straight to the degradation
    chain, so a persistently broken or pathologically slow engine stops
    burning a full failure (and its latency) per request.  After a
    cooldown the breaker goes {e half-open} and admits a single probe
    request; enough probe successes close it again, one probe failure
    re-opens it.

    State machine:
    {v
      Closed --(threshold failures in window)--> Open
      Open --(cooldown elapsed)--> Half_open (one probe in flight)
      Half_open --(probes consecutive probe successes)--> Closed
      Half_open --(probe failure)--> Open (cooldown restarts)
    v}

    Observability: each breaker owns a [router_breaker_state_<engine>]
    gauge (0 closed / 1 open / 2 half-open); trips, rejections and
    recoveries move the [router_breaker_trips] /
    [router_breaker_rejections] / [router_breaker_recoveries] counters
    plus always-on plain tallies ({!trips} &c.) for health reports when
    metrics collection is off.

    {b Domain safety} (DESIGN.md §13): every operation locks the
    breaker's own mutex; the critical sections are a few loads and
    stores, never user code.  Safe from any domain. *)

type t

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed" | "open" | "half_open"]. *)

type config = {
  window : int;  (** Rolling outcome window size. *)
  threshold : int;  (** Failures within the window that trip open. *)
  cooldown_ns : int64;  (** Open → half-open after this long. *)
  probes : int;  (** Probe successes required to close again. *)
}

val default_config : config
(** window 16, threshold 5, cooldown 2 s, probes 2. *)

val create : ?config:config -> string -> t
(** A fresh closed breaker named after its engine (the name is
    sanitized into the state-gauge metric name).
    @raise Invalid_argument on a non-positive window/threshold/probes,
    a threshold exceeding the window, or a negative cooldown. *)

val admit : t -> [ `Admit | `Probe | `Reject ]
(** Ask to send one request through the engine.  [`Admit]: closed,
    report the outcome with {!record}.  [`Probe]: half-open and this
    caller holds the single probe slot — report with {!record_probe}.
    [`Reject]: open (or a probe is already in flight) — skip the engine
    and degrade; report nothing. *)

val record : t -> ok:bool -> unit
(** Outcome of an [`Admit]ted request.  Ignored if the breaker tripped
    while the request was in flight. *)

val record_probe : t -> ok:bool -> unit
(** Outcome of a [`Probe] request: success counts toward closing,
    failure re-opens immediately. *)

val abandon_probe : t -> unit
(** Release the probe slot without recording an outcome — the probe
    request was cancelled, which says nothing about engine health.  The
    breaker stays half-open and the next admitted request probes. *)

val state : t -> state

val name : t -> string

val trips : t -> int
(** Times this breaker has tripped open (metrics-independent tally). *)

val rejections : t -> int
(** Requests this breaker has bounced to the degradation chain. *)

val recoveries : t -> int
(** Times this breaker has closed again after probing. *)

val reset : t -> unit
(** Back to closed with an empty window (tests). *)

(** {2 Global per-engine table}

    The serving layer resolves breakers by engine name so every session
    (and every worker domain) shares one breaker per engine. *)

val get_or_create : ?config:config -> string -> t
(** The process-wide breaker for an engine, created on first use with
    [config] (later calls ignore [config]; the first registration
    wins). *)

val clear_all : unit -> unit
(** Reset and drop every table entry (tests). *)
