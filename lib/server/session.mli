(** Request processing.

    A session owns everything its requests reuse: the reply buffer every
    reply is rendered into, the last grid (rebuilt only when the shape
    changes), a {!Plan_cache.t} (optionally shared between sessions by
    the server), and the request counter behind the [health] report.
    The socket server runs one session for every connection at
    [--workers 1] and one per worker above it, so connection state (the
    error budget) lives in {!Server}, not here.  {!handle_line} is the
    whole request pipeline — parse, dispatch, route, serialize — and is
    pure string-to-string, so tests and the [serve_session] example drive
    it without sockets or channels.

    Every request runs inside a [serve_request] trace span (method name
    and outcome as attributes) and bumps the [server_requests] /
    [server_errors] counters and the [server_request_ms] histogram.

    {b Telemetry plane} (DESIGN.md §12): a request carrying a [trace]
    context has its trace_id adopted for the duration — every span in
    the request's tree, including engine phases and degradations, is
    stamped with it — and the response echoes the context plus a
    [server_ms] timing field.  {!handle_line} emits one Info-level
    access-log record per request (method, status, bytes, ms, trace_id,
    cache outcome, degradation) through {!Qr_obs.Log}. *)

type config = {
  cache_capacity : int;
      (** {!Plan_cache} bound (default 128; 0 turns caching off, and a
          negative capacity is refused). *)
  max_batch : int;
      (** Largest accepted [route_batch]; bigger batches get the
          [overloaded] error (default 64; below 1 is refused). *)
  max_inflight : int;
      (** Pipelined requests the server queues per poll cycle before
          answering [overloaded] (default 32; enforced by {!Server}). *)
  verify : bool;
      (** Verified routing ([--verify-schedules]): every schedule —
          freshly planned or a cache hit — is checked against the
          routing invariant; bad engines degrade through the
          {!Qr_route.Router_registry.verified} fallback chain, and
          cache hits that fail re-verification are evicted and
          replanned (default [false]). *)
  error_budget : int;
      (** Consecutive error responses a connection may accumulate
          before the server stops reading it and closes it once its
          replies are written (default 32; 0 disables, and a negative
          budget is refused; enforced by {!Server}). *)
  max_line_bytes : int;
      (** Largest request line (and largest partial line buffered while
          waiting for its newline) a connection may send; past it the
          server replies [invalid_request] and closes — a stuck or
          malicious client cannot grow a connection buffer without
          bound (default 1 MiB; enforced by {!Server}). *)
  max_outbox_bytes : int;
      (** Response bytes the server will queue for a connection whose
          client is not reading them, behind the reply being written;
          past it the connection is closed ([server_slow_client_closes])
          — a stalled reader blocks only itself, never the serving loop,
          and cannot hold unbounded response memory.  One reply larger
          than the cap is still written when nothing queues ahead of it
          (default 4 MiB, at least 1; enforced by {!Server}'s
          per-connection {!Write_queue}). *)
  hung_request_ms : int option;
      (** Watchdog budget ([--hung-request-ms]): a pool request running
          longer is cancelled, and a worker that then stops making
          progress is declared lost and its domain respawned (default
          [None] = watchdog off; enforced by {!Server}/{!Supervisor}). *)
  queue_delay_target_ms : int option;
      (** Adaptive-admission target ([--queue-delay-ms]): when the EWMA
          of job queue delay exceeds it, new requests are shed with
          [overloaded] plus a [retry_after_ms] hint (default [None] =
          off; enforced by {!Server}/{!Supervisor}). *)
  max_rss_mb : int option;
      (** Memory brownout threshold ([--max-rss-mb]): past this max-RSS
          high-water mark the plan cache is shrunk and batch requests
          rejected (default [None] = off). *)
  breaker : Qr_route.Breaker.config option;
      (** Per-engine circuit breakers for verified routing
          ([--breaker-threshold]/[--breaker-cooldown-ms]): repeated
          engine failures trip the breaker open and requests skip
          straight to the degradation chain until half-open probes
          succeed.  Only effective with [verify] (the breaker watches
          the verified ladder's outcomes; default [None] = off). *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?cache:Plan_cache.t ->
  ?inflight_probe:(unit -> int) ->
  ?pool:Worker_pool.t ->
  ?worker:int ->
  unit ->
  t
(** A fresh session with its own reply buffer.  [cache] shares a cache
    between sessions (the socket server passes one cache to every
    connection); by default the session creates its own with
    [config.cache_capacity].  [inflight_probe] supplies the [health]
    report's [inflight] count (the socket server passes its pending
    queue length; defaults to [fun () -> 0]).  [pool] lets
    [route_batch] fan its items across worker domains
    ({!Worker_pool.map_tasks}); without it batches run serially as
    before.  [worker] stamps the owning worker's index into every
    access-log record ([worker=N]) in pool mode.  Creation completes
    the engine registry (registers the token-swapping engines), so a
    bare [qr_server] link serves the full engine set.

    {b Domain safety} (DESIGN.md §13): a session is {e single-owner}
    mutable state — create it on (or dedicate it to) the one domain
    that calls [handle_line]; the multicore server keeps one session
    per worker.  The cache shared between sessions is safe
    ({!Plan_cache} locks internally); the reply buffer and the last grid
    are the session's own. *)

val cache : t -> Plan_cache.t

val requests_served : t -> int

val stats : t -> Protocol.Json.t
(** The [stats] method's result: health, plan-cache counters and the
    full metrics registry (process gauges refreshed) in one snapshot. *)

val refresh_process_gauges : unit -> unit
(** Update the [process_uptime_seconds] / [process_max_rss_kb] /
    [process_gc_major_words] gauges from the live process.  Called by
    the [metrics] and [stats] methods and the [--metrics-file]
    writer. *)

val handle_line : t -> string -> string
(** One request line to one response line (no trailing newline): parse,
    validate, dispatch, render.  Errors are encoded in the reply, never
    raised.  A reply to a parsed request echoes its trace context and
    carries [server_ms], which stops before the reply is rendered.

    The request runs under one {!Qr_util.Cancel.t}: the ambient token
    when the caller installed one (the pool's job wrapper does, and the
    watchdog holds its other end), a fresh one otherwise.  Its
    [deadline_ms] budget is set on that token for the request's duration
    ({!Qr_util.Cancel.with_budget_ms}) and checked between phases, and
    the token is ambient for the whole request, including each
    [route_batch] item fanned out to a pool domain, so the routing loops
    poll it wherever they run.

    A [route] line of the one hot shape {!Protocol.read_route_line}
    takes is read without a tree; every other line is parsed by
    [Json.of_string].  Both reach the same checks, in one function, so a
    line gets the same reply whichever reader took it (DESIGN.md §10).

    The reply is rendered in one pass into a buffer the session reuses:
    [route] and [route_batch] write their schedules straight into it
    ({!Qr_route.Schedule.to_buffer}), and every other method renders its
    result tree there.  After a reply over 1 MiB the buffer is released.
    The session also keeps the grid of its last request and reuses it
    while [rows] and [cols] repeat; the size check on the two numbers
    still runs first (DESIGN.md §10, §14). *)

val handle_line_status : t -> string -> string * bool
(** {!handle_line} plus whether the response was an error — the signal
    {!Server} feeds each connection's consecutive-error budget.  The
    budget is counted on the connection, not the session: one session
    serves every connection at [--workers 1], and each worker's session
    serves many at [--workers > 1]. *)

val overloaded_response_line : ?retry_after_ms:int -> string -> string
(** The [overloaded] error response for a request line that was shed
    before parsing — echoes the line's id when one can be recovered.
    [retry_after_ms] adds the adaptive-admission backpressure hint.
    Used by {!Server}'s bounded in-flight queue. *)

val oversized_response_line : unit -> string
(** The [invalid_request] response sent just before closing a
    connection whose request line exceeded [max_line_bytes] (the line
    itself is not parsed, so no id is echoed). *)

val hung_response_line : string -> string
(** The [internal_error] response the watchdog parks for a request
    whose worker was declared lost — echoes the line's id when one can
    be recovered. *)

val crashed_response_line : string -> exn -> string
(** The [internal_error] response the serving loops substitute when the
    request pipeline itself raised — the last line of per-request
    exception isolation (one bad request can never kill the loop). *)
