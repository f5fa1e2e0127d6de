(** Supervision and overload control for the socket server.

    Three cooperating protections (DESIGN.md §14); the first two act on
    pool jobs, the brownout works at every worker count:

    - {b Watchdog}: every pool job runs under a {!ticket} carrying the
      request's {!Qr_util.Cancel.t}.  The main loop calls {!monitor}
      each tick; a request past [hung_ms] is killed cooperatively (the
      cancel token flips, a polling engine aborts within a stride), and
      one further [hung_ms] of grace with a frozen progress word means
      the worker is not polling at all — it is declared {e lost}: the
      abort reply is parked for the client and the worker index returned
      so the server respawns the domain
      ([server_hung_requests] / [server_worker_restarts]).
    - {b Adaptive admission}: workers report their observed queue delay
      ({!note_queue_delay}); when the EWMA exceeds the target the
      accept loop sheds new requests with [overloaded] plus a
      [retry_after_ms] hint ({!should_shed}, [server_shed_adaptive],
      [server_queue_delay_ms]).
    - {b Memory brownout}: once the process max-RSS high-water mark
      crosses [max_rss_mb], the plan cache is shrunk and batch fan-out
      is rejected ({!check_memory}, {!brownout_active},
      [server_brownout]).  One-way by construction — max RSS never
      falls.

    {b Domain safety} (DESIGN.md §13): tickets are settled by a CAS
    that the worker and the watchdog race — exactly one of them writes
    the reply slot.  Slots, the delay EWMA and the brownout flag are
    atomics; {!monitor} runs only on the main domain. *)

type t

type ticket

val create :
  ?hung_ms:int ->
  ?queue_delay_target_ms:int ->
  ?max_rss_mb:int ->
  workers:int ->
  unit ->
  t
(** All three protections are off unless their knob is given.
    @raise Invalid_argument on non-positive knobs or [workers < 1]. *)

(** {2 Job lifecycle (worker side)} *)

val enter :
  t ->
  worker:int ->
  cancel:Qr_util.Cancel.t ->
  abort:(unit -> unit) ->
  ticket
(** Register the job now starting on [worker].  [abort] must park an
    [internal_error] reply in the job's response slot and wake the
    writer — it is invoked (on the main domain) only if the watchdog
    wins the settle race. *)

val settle : ticket -> bool
(** Claim the reply slot; [true] exactly once across worker and
    watchdog.  A worker whose settle returns [false] must drop its
    response — the watchdog already answered for it. *)

val leave : t -> ticket -> unit
(** Clear the worker's slot (no-op if the watchdog already did). *)

(** {2 Watchdog (main loop)} *)

val monitor : t -> int list
(** One escalation pass over all slots; returns the indexes of workers
    declared lost this tick (their abort replies are already parked) —
    the caller respawns those domains.  Empty when [hung_ms] is off. *)

val poll_interval_s : t -> float
(** Watchdog cadence that keeps kill/lost detection within a fraction
    of [hung_ms]: [hung_ms/4] clamped to [\[10ms, 1s\]]; [1s] when off.
    The period of the event-loop timer that drives {!monitor} and
    {!check_memory} (DESIGN.md §15). *)

val poll_interval_ns : t -> int64
(** {!poll_interval_s} in nanoseconds — the period handed to
    {!Qr_server.Event_loop.add_timer}, never below 1ms. *)

val hung : t -> int
(** Requests killed by the watchdog (metrics-independent tally). *)

(** {2 Adaptive admission} *)

val note_queue_delay : t -> int64 -> unit
(** Report one observed submit-to-start delay in nanoseconds (worker
    side, at job start). *)

val queue_delay_ms : t -> float
(** Current EWMA in milliseconds (0 before the first sample). *)

val should_shed : t -> int option
(** [Some retry_after_ms] when the delay EWMA exceeds the target —
    shed the incoming request; hint is twice the current EWMA, clamped
    to [\[1, 60000\]] ms.  Always [None] with no target.

    The EWMA only gains samples when jobs start, so while it is over
    target and no job has started for four target-widths (the backlog
    has drained), each consult folds in one zero sample: a burst's
    spike decays geometrically instead of shedding forever. *)

val retry_hint_ms : t -> int
(** The hint alone, for sheds decided elsewhere (e.g. the job queue at
    its hard bound). *)

(** {2 Memory brownout} *)

val check_memory : t -> cache:Plan_cache.t -> unit
(** Compare max-RSS against the limit; on first crossing, shrink
    [cache] to an eighth of its capacity ({!Plan_cache.set_limit}) and
    raise the process-wide brownout flag. *)

val brownout_active : unit -> bool
(** Process-wide flag sessions consult to reject batch work. *)

val reset_brownout : unit -> unit
(** Clear the process-wide flag (tests). *)
