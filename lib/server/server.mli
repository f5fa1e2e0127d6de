(** The routing service's serving loops.

    Three transports share one request pipeline ({!Session.handle_line}):

    - {!run_stdio} serves newline-delimited JSON on stdin/stdout — the
      mode scripts and CI pipe through, and the transport a transpiler
      pipeline would spawn as a subprocess;
    - {!serve_fd} serves one already-connected file descriptor (one end
      of a socketpair, an inherited fd) until EOF — the loop the chaos
      harness drives;
    - {!run_socket} serves a Unix-domain socket.

    {!serve_fd} and {!run_socket} share one connection pipeline on a
    readiness-driven [poll(2)] {!Event_loop} (DESIGN.md §15): each
    request line claims the connection's next arrival slot, and replies
    are written in slot order whoever produces them, so they leave every
    connection in arrival order.  All sessions of a socket server share
    one {!Plan_cache}, so any client can hit plans another client
    warmed.

    All accepted descriptors are nonblocking and close-on-exec; only the
    fd limit bounds their number ([poll(2)] has no FD_SETSIZE cap).
    Responses go through a per-connection bounded write queue
    ({!Write_queue}) flushed on writability: a client that stops
    reading blocks {e only itself}, and once the replies queued behind
    the one being written would exceed [max_outbox_bytes] the connection
    is closed ([server_slow_client_closes] metric) rather than letting
    the queue grow without bound.  A reply larger than the cap is still
    written whole when nothing queues ahead of it (DESIGN.md §15).  An
    idle server with no timers armed makes zero wakeups
    ([server_loop_wakeups] counter); the metrics-snapshot cadence and
    the supervisor's watchdog scan are event-loop timers, armed only
    when their feature is on.

    Robustness (DESIGN.md §11): every request runs under per-request
    exception isolation — a crashing handler produces an
    [internal_error] response ([server_crashed_requests] metric), never
    a dead loop.  A peer vanishing mid-response ([EPIPE]/[ECONNRESET])
    closes that connection only.  A connection that accumulates
    [error_budget] consecutive error responses is shed
    ([server_error_budget_closes] metric): nothing more is read from
    it, but every line already read is still answered.  The budget is
    counted on the connection, in arrival order, from
    {!Session.handle_line_status}'s flag.  Fault points [server.read],
    [server.write], [server.accept], [server.poll] and
    [server.writable] let a chaos plan exercise all of these
    deterministically.

    Backpressure: complete request lines are staged in a bounded in-flight
    queue (the pool's job queue at [workers > 1]); once [max_inflight]
    requests are queued, further pipelined requests are answered with
    the [overloaded] error, in their own arrival slot, instead of
    growing the queue without bound.

    Shutdown: SIGINT/SIGTERM set a flag and wake the loop, which stops
    accepting (listener unwatched) and reading, answers every line
    already read, flushes write queues under a bounded (5s) grace for
    slow readers, and closes and removes the socket file before
    returning (graceful drain).  The stdio and socket loops enable
    {!Qr_obs.Metrics}, so [metrics] and the plan-cache counters are live.

    Telemetry (DESIGN.md §12): with [metrics_file] set, the loops write
    the Prometheus exposition ({!Qr_obs.Metrics.to_prometheus}, process
    gauges refreshed) to that path atomically (tmp + rename) about every
    2 seconds and at shutdown/EOF — file-based scraping without an HTTP
    listener.  Access-log records are emitted per request by
    {!Session.handle_line}. *)

val serve_channels :
  ?config:Session.config ->
  ?metrics_file:string ->
  in_channel ->
  out_channel ->
  unit
(** Serve one connection's worth of requests: read lines until EOF,
    answer each on [oc] (flushed per response).  Lines are framed as on a
    socket: blank lines are skipped, EOF ends the last line, and a line
    longer than the session's [max_line_bytes] is answered with
    [invalid_request] and ends the loop.  The loop {!run_stdio} wraps,
    and the seam tests drive over an in-memory channel pair.
    [metrics_file] snapshots are written at most every ~2s after a
    response, plus once at EOF. *)

val run_stdio : ?config:Session.config -> ?metrics_file:string -> unit -> unit
(** {!serve_channels} on stdin/stdout with metrics enabled.  A knob
    {!run_socket} refuses is refused here too, with the same [Failure],
    before anything is read. *)

val serve_fd : ?config:Session.config -> Unix.file_descr -> unit
(** Serve one connected descriptor until EOF, peer reset, an injected
    read fault, or the error budget trips — reads through the
    [server.read] fault point and writes through [server.write], so chaos
    plans reach the real descriptor I/O (unlike {!serve_channels}, whose
    buffered channels bypass it).  Runs [fd] through the socket
    server's connection pipeline with the inline executor, so
    [max_inflight], [max_line_bytes], [max_outbox_bytes] and
    [error_budget] apply as they do on a socket (the fd is switched to
    nonblocking for the duration and restored on exit).  A fresh
    session answers every line.  Does not close [fd] and does not enable
    metrics; the caller owns both. *)

val run_socket :
  ?config:Session.config ->
  ?metrics_file:string ->
  ?workers:int ->
  path:string ->
  unit ->
  unit
(** Bind, listen and serve [path] until SIGINT/SIGTERM, then drain.  A
    stale socket file left by a crashed server is replaced; any other
    existing file is an error ([Failure]), and so is a [workers],
    [hung_request_ms], [queue_delay_target_ms], [max_rss_mb],
    [max_batch], [max_inflight], [max_line_bytes] or [max_outbox_bytes]
    below 1, a [breaker] whose threshold or cooldown is below 1, or a
    negative [cache_capacity] or [error_budget] ([Failure] naming the
    field, raised before the socket is bound).
    The socket file is removed on exit.  Sessions report the pending
    queue's length as their [health] [inflight] count.  [metrics_file]
    snapshots are written at startup, about every 2s, and at shutdown.

    [workers] (default 1) picks the executor and nothing else: replies,
    their order, shedding, the error budget and the drain are the same
    at every count.  [1] answers requests inline on the loop's domain
    with one {!Session} for every connection.  [> 1] runs them on a
    {!Worker_pool} of that many domains, one session per worker;
    [route_batch] items additionally fan out across the pool, and the
    supervisor's watchdog
    ([hung_request_ms]) and adaptive admission
    ([queue_delay_target_ms]) act on the pool's jobs.  The memory
    brownout ([max_rss_mb]) works at every count.  The
    [server_workers] gauge reports the mode; [server_queue_depth]
    tracks the pool's backlog. *)
