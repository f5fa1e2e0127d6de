module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Json = Qr_obs.Json
module Timer = Qr_util.Timer
module Cancel = Qr_util.Cancel
module Fault = Qr_fault.Fault

let c_connections = Metrics.counter "server_connections"
let c_shed = Metrics.counter "server_shed_requests"
let c_crashed = Metrics.counter "server_crashed_requests"
let c_budget_closes = Metrics.counter "server_error_budget_closes"

let c_oversized =
  Metrics.counter "server_oversized_lines"
    ~help:"Connections closed for exceeding max-line-bytes."

let c_slow_closes =
  Metrics.counter "server_slow_client_closes"
    ~help:
      "Connections closed because their queued responses exceeded \
       max-outbox-bytes (client stopped reading)."

let g_workers =
  Metrics.gauge "server_workers"
    ~help:"Worker domains serving requests (1 = single-threaded loop)."

(* How long the post-signal drain keeps trying to flush response bytes a
   slow client has not read yet.  The requests themselves are always
   answered into the outboxes; this only bounds the goodbye. *)
let drain_flush_ns = 5_000_000_000L

(* ------------------------------------------------- metrics-file snapshots *)

(* Periodic Prometheus snapshots for file-based scraping: written
   atomically (tmp + rename) so a concurrent reader never sees a torn
   exposition.  A failing write warns once and never disturbs serving. *)
let write_metrics_file path =
  try
    Session.refresh_process_gauges ();
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (Metrics.to_prometheus ());
    close_out oc;
    Sys.rename tmp path
  with exn ->
    Log.warn_once ~key:"metrics_file" "failed to write metrics file"
      [
        ("path", Json.String path);
        ("error", Json.String (Printexc.to_string exn));
      ]

let metrics_interval_ns = 2_000_000_000L

(* A rate-limited writer: [tick] writes at most every ~2s, [flush] always
   (startup, shutdown, EOF).  The socket loop drives [tick] from an
   event-loop timer instead of a poll-timeout cadence, so a server with
   no metrics file armed never wakes for it at all. *)
let metrics_writer metrics_file =
  match metrics_file with
  | None -> ((fun () -> ()), fun () -> ())
  | Some path ->
      let last = ref Int64.min_int in
      let flush () =
        last := Timer.now_ns ();
        write_metrics_file path
      in
      let tick () =
        if Int64.sub (Timer.now_ns ()) !last >= metrics_interval_ns then
          flush ()
      in
      (tick, flush)

(* ---------------------------------------------------------------- framing *)

(* Move complete lines out of an input buffer; the trailing fragment
   (no newline yet) stays for the next read.  Stops at the first line
   longer than [limit] — the in-bound lines before it are returned for
   normal processing and the [true] flag tells the caller to answer
   [invalid_request] and close.  A trailing fragment past the limit
   trips the same way: the buffer must never grow without bound while
   waiting for a newline that may never come. *)
let take_lines inbuf ~limit =
  let data = Buffer.contents inbuf in
  Buffer.clear inbuf;
  let rec go start lines =
    match String.index_from_opt data start '\n' with
    | Some i when i - start > limit -> (List.rev lines, true)
    | Some i ->
        let line = String.sub data start (i - start) in
        go (i + 1) (if String.trim line = "" then lines else line :: lines)
    | None ->
        let rest = String.length data - start in
        if rest > limit then (List.rev lines, true)
        else begin
          Buffer.add_substring inbuf data start rest;
          (List.rev lines, false)
        end
  in
  go 0 []

(* ---------------------------------------------------------- channel loop *)

(* Every transport frames lines the same way: [take_lines] under
   [max_line_bytes], and the end of input ends the last line. *)
let serve_channels ?(config = Session.default_config) ?metrics_file ic oc =
  let session = Session.create ~config () in
  let limit = config.Session.max_line_bytes in
  let tick_metrics, flush_metrics = metrics_writer metrics_file in
  let send reply =
    output_string oc reply;
    output_char oc '\n';
    flush oc
  in
  let answer line =
    send
      (try Session.handle_line session line
       with exn ->
         Metrics.incr c_crashed;
         Session.crashed_response_line line exn);
    tick_metrics ()
  in
  let inbuf = Buffer.create 256 and chunk = Bytes.create 65536 in
  let rec go () =
    let k = input ic chunk 0 (Bytes.length chunk) in
    if k = 0 then Buffer.add_char inbuf '\n'
    else Buffer.add_subbytes inbuf chunk 0 k;
    let lines, oversized = take_lines inbuf ~limit in
    List.iter answer lines;
    if oversized then begin
      Metrics.incr c_oversized;
      send (Session.oversized_response_line ())
    end
    else if k > 0 then go ()
  in
  go ();
  flush_metrics ()

(* The worker count, the supervisor's knobs (durations and a size), the
   queue bound, the batch cap, the line cap, the outbox cap and a
   breaker's threshold and cooldown are counts or sizes: one below 1 is a
   configuration error, and so is a negative cache capacity or error
   budget (0 turns caching or shedding off).  [Failure] names the first
   one out of range, before anything is served or bound. *)
let check_knobs ?(workers = 1) config =
  let breaker field = Option.map field config.Session.breaker in
  List.iter
    (fun (field, floor, value) ->
      match value with
      | Some v when v < floor ->
          failwith
            (Printf.sprintf "%s must be at least %d, got %d" field floor v)
      | _ -> ())
    [
      ("workers", 1, Some workers);
      ("hung_request_ms", 1, config.Session.hung_request_ms);
      ("queue_delay_target_ms", 1, config.Session.queue_delay_target_ms);
      ("max_rss_mb", 1, config.Session.max_rss_mb);
      ("max_batch", 1, Some config.Session.max_batch);
      ("max_inflight", 1, Some config.Session.max_inflight);
      ("max_line_bytes", 1, Some config.Session.max_line_bytes);
      ("max_outbox_bytes", 1, Some config.Session.max_outbox_bytes);
      ("cache_capacity", 0, Some config.Session.cache_capacity);
      ("error_budget", 0, Some config.Session.error_budget);
      ("breaker.threshold", 1, breaker (fun b -> b.Qr_route.Breaker.threshold));
      ( "breaker.cooldown_ns",
        1,
        breaker (fun b -> Int64.to_int b.Qr_route.Breaker.cooldown_ns) );
    ]

let run_stdio ?(config = Session.default_config) ?metrics_file () =
  check_knobs config;
  Metrics.enable ();
  serve_channels ~config ?metrics_file stdin stdout

(* ------------------------------------------------------------ connections *)

(* One nonblocking connection in the readiness loop.  Responses go
   through a bounded {!Write_queue} flushed on writability: a client
   that stops reading grows only its own queue, and past the byte cap
   the connection is closed ([server_slow_client_closes]) instead of
   head-of-line-blocking the loop the way the historical blocking
   [write_all] did.

   Each request line claims the next arrival slot, and its reply fills
   that slot in the outbox — whether the line was answered inline, by a
   pool worker, or with a ready-made shed, oversized or watchdog reply.
   The loop moves filled slots into the write queue in slot order, so
   replies leave in arrival order however the executor interleaves
   them.

   [eof] stops reading but keeps flushing (the half-closed one-shot
   client pattern: request sent, write side shut down, still waiting to
   read its response); the connection closes once every claimed slot
   has been written.  [dead] closes immediately, discarding queued
   bytes. *)

(* A reply's standing toward the consecutive-error budget: [`Errored]
   counts, [`Ok] resets, and [`Shed] leaves it alone.  An [overloaded]
   reply is the server's condition, not evidence of a misbehaving
   client — a polite client honouring retry_after_ms through a long
   brownout must neither be disconnected for it nor have its garbage
   streak forgiven by it. *)
type standing = [ `Ok | `Errored | `Shed ]

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes read, possibly ending mid-line *)
  wq : Write_queue.t;
  mutex : Mutex.t;  (* guards [outbox]: pool workers fill slots *)
  outbox : (int, string * standing) Hashtbl.t;  (* slot -> reply *)
  mutable handle : Event_loop.handle option;
  (* The fields below belong to the loop's domain. *)
  mutable next_slot : int;
  mutable next_write : int;
  mutable inflight : int;  (* slots claimed, not yet moved to the wq *)
  mutable errors : int;  (* consecutive [`Errored] replies *)
  mutable eof : bool;
  mutable dead : bool;
}

let claim conn =
  let slot = conn.next_slot in
  conn.next_slot <- slot + 1;
  conn.inflight <- conn.inflight + 1;
  slot

let fill conn slot reply =
  Mutex.lock conn.mutex;
  Hashtbl.replace conn.outbox slot reply;
  Mutex.unlock conn.mutex

(* A ready-made reply rides the ordered outbox like any other, so it
   never jumps the queue. *)
let park conn reply = fill conn (claim conn) reply

(* Answer one request line, with per-request exception isolation — a
   crashing handler yields an [internal_error] reply, never a dead
   loop.  [guard] wraps the handler (the pool's cancel token and
   [worker.hang] fault point); a request the watchdog killed gets the
   watchdog's reply. *)
let answer ?(guard = fun f -> f ()) session line =
  match guard (fun () -> Session.handle_line_status session line) with
  | reply, errored -> (reply, if errored then `Errored else `Ok)
  | exception Cancel.Cancelled Cancel.Killed ->
      (Session.hung_response_line line, `Errored)
  | exception exn ->
      Metrics.incr c_crashed;
      (Session.crashed_response_line line exn, `Errored)

let set_interest loop conn ?readable ?writable () =
  Option.iter
    (fun h -> Event_loop.set_interest loop h ?readable ?writable ())
    conn.handle

(* Flush whatever the kernel will take and keep write interest armed
   exactly while bytes remain.  The [server.writable] fault point covers
   the flush as a whole (a chaos plan can stall or kill the writable
   path); per-write faults stay on [server.write] inside the queue. *)
let flush_conn loop conn =
  if not conn.dead then
    match
      Fault.point "server.writable" ~f:(fun () -> Write_queue.flush conn.wq)
    with
    | `Idle -> set_interest loop conn ~writable:false ()
    | `Pending -> set_interest loop conn ~writable:true ()
    | `Closed | (exception Fault.Injected _) -> conn.dead <- true

(* Move filled slots into the write queue in slot order; stop at the
   first slot not filled yet.  The error budget is counted here, in
   arrival order, the one place it is counted.  A tripped budget sets
   [eof]: nothing more is read, but every reply to a line already read
   still flushes.  A dead connection keeps consuming its slots (so
   [inflight] reaches 0 and it can close) without queuing bytes.  A
   reply that overflows the queue first flushes it, since the bytes
   ahead may be replies moved earlier in this same cycle; only a second
   overflow is the slow-client verdict: drop the connection rather than
   buffer without bound. *)
let flush_outbox loop config conn =
  let enqueue line =
    let refused () =
      (not conn.dead) && Write_queue.enqueue conn.wq line = `Overflow
    in
    if refused () then begin
      flush_conn loop conn;
      if refused () then begin
        Metrics.incr c_slow_closes;
        conn.dead <- true
      end
    end
  in
  let rec go () =
    Mutex.lock conn.mutex;
    let next = Hashtbl.find_opt conn.outbox conn.next_write in
    Hashtbl.remove conn.outbox conn.next_write;
    Mutex.unlock conn.mutex;
    match next with
    | None -> ()
    | Some (line, standing) ->
        conn.inflight <- conn.inflight - 1;
        conn.next_write <- conn.next_write + 1;
        enqueue line;
        (match standing with
        | `Errored ->
            conn.errors <- conn.errors + 1;
            if conn.errors = config.Session.error_budget then begin
              Metrics.incr c_budget_closes;
              conn.eof <- true
            end
        | `Ok -> conn.errors <- 0
        | `Shed -> ());
        go ()
  in
  go ()

(* Pull whatever is readable off a connection.  [Would_block] is the
   normal end of a readiness-sized burst on a nonblocking fd — park
   until poll reports the fd readable again (the old loop busy-spun
   here).  The peer's orderly EOF ends its last line, as on stdio; a
   reset, a read fault, a budget trip or the drain leaves a fragment
   unanswered. *)
let read_conn conn chunk =
  let rec go () =
    if not (conn.eof || conn.dead) then
      match Io_util.read_chunk ~fault:"server.read" conn.fd chunk with
      | Io_util.Would_block -> ()
      | Io_util.Eof ->
          Buffer.add_char conn.inbuf '\n';
          conn.eof <- true
      | Io_util.Closed -> conn.eof <- true
      | Io_util.Read k ->
          Buffer.add_subbytes conn.inbuf chunk 0 k;
          go ()
      | exception Fault.Injected _ -> conn.eof <- true
  in
  go ()

(* -------------------------------------------------------------- executors *)

(* What answers the lines.  [submit] claims a line's arrival slot and
   sees that it gets filled; [run] ends every loop cycle; [respawn]
   replaces a worker the watchdog declared lost; [shutdown] releases
   what the executor owns. *)
type executor = {
  submit : conn -> string -> unit;
  run : unit -> unit;
  respawn : int -> unit;
  shutdown : unit -> unit;
}

(* Inline on the loop's domain ([serve_fd], [--workers 1]), with one
   session for every connection.  Lines are staged in the bounded
   in-flight queue and answered at the end of the cycle, in arrival
   order; lines pipelined past [max_inflight] are shed with [overloaded]
   right away rather than queued without limit.  The queue is empty
   again before the next poll, so a SIGTERM between cycles never
   abandons accepted work, and no self-pipe is needed. *)
let inline_executor config make_session =
  let staged = Queue.create () in
  let session = make_session (fun () -> Queue.length staged) in
  let submit conn line =
    if Queue.length staged >= config.Session.max_inflight then begin
      Metrics.incr c_shed;
      park conn (Session.overloaded_response_line line, `Shed)
    end
    else Queue.add (conn, claim conn, line) staged
  in
  let run () =
    while not (Queue.is_empty staged) do
      let conn, slot, line = Queue.pop staged in
      fill conn slot (answer session line)
    done
  in
  { submit; run; respawn = ignore; shutdown = ignore }

(* Pool mode (DESIGN.md §13, §14): lines become jobs on a {!Worker_pool}
   of [workers] domains.  A worker finishing a job pokes a self-pipe
   whose read end is just another readable fd in the loop's interest
   set, so its reply is written promptly instead of waiting out a poll
   timeout. *)
let pool_executor config ~loop ~cache ~sup ~workers =
  (* Both pipe ends nonblocking — a full pipe already means a wake-up is
     pending — and CLOEXEC, like every fd this loop mints. *)
  let pipe_rd, pipe_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_rd;
  Unix.set_nonblock pipe_wr;
  let poke = Bytes.make 1 '!' in
  let notify () =
    try ignore (Unix.write pipe_wr poke 0 1) with Unix.Unix_error _ -> ()
  in
  let sink = Bytes.create 512 in
  let rec drain_pipe () =
    match Unix.read pipe_rd sink 0 512 with
    | 0 -> ()
    | _ -> drain_pipe ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_pipe ()
  in
  ignore
    (Event_loop.watch loop pipe_rd (fun ~readable ~writable:_ ->
         if readable then drain_pipe ()));
  let pool =
    Worker_pool.create ~queue_bound:config.Session.max_inflight ~notify
      ~workers ()
  in
  (* One session per worker, created lazily {e on} the worker that owns
     its reply buffer and last grid; slot [k] is only ever touched by
     worker [k].  All sessions share the one plan cache. *)
  let sessions = Array.make workers None in
  let session_for k =
    match sessions.(k) with
    | Some s -> s
    | None ->
        let s =
          Session.create ~config ~cache ~pool ~worker:(k + 1)
            ~inflight_probe:(fun () -> Worker_pool.pending pool)
            ()
        in
        sessions.(k) <- Some s;
        s
  in
  (* Adaptive admission sheds before the queue is even tried; a refused
     job (queue at hard bound) sheds into the line's own slot so
     ordering holds.  Each accepted job runs under a supervisor ticket:
     a fresh cancel token becomes ambient for the request (engines poll
     it), the watchdog's abort fills the slot with the [internal_error]
     reply if the worker is declared lost, and the settle CAS guarantees
     exactly one of worker and watchdog answers. *)
  let submit conn line =
    match Supervisor.should_shed sup with
    | Some retry_after_ms ->
        Metrics.incr c_shed;
        park conn (Session.overloaded_response_line ~retry_after_ms line, `Shed)
    | None ->
        let slot = claim conn in
        let submitted_ns = Timer.now_ns () in
        let job () =
          let k = Option.value ~default:0 (Worker_pool.worker_index ()) in
          Supervisor.note_queue_delay sup
            (Int64.sub (Timer.now_ns ()) submitted_ns);
          let cancel = Cancel.create () in
          let ticket =
            Supervisor.enter sup ~worker:k ~cancel ~abort:(fun () ->
                fill conn slot (Session.hung_response_line line, `Errored);
                notify ())
          in
          let guard f =
            Cancel.with_ambient cancel (fun () -> Fault.point "worker.hang" ~f)
          in
          let reply = answer ~guard (session_for k) line in
          let won = Supervisor.settle ticket in
          Supervisor.leave sup ticket;
          if won then fill conn slot reply
        in
        if not (Worker_pool.submit pool job) then begin
          Metrics.incr c_shed;
          fill conn slot
            ( Session.overloaded_response_line
                ~retry_after_ms:(Supervisor.retry_hint_ms sup) line,
              `Shed )
        end
  in
  (* A lost worker's session is dropped before its slot is respawned, so
     the replacement builds a fresh one (the zombie may still be writing
     to the old session's reply buffer) — the write happens before
     [replace]'s spawn, so the new domain sees it. *)
  let respawn k =
    sessions.(k) <- None;
    Worker_pool.replace pool k
  in
  let shutdown () =
    Worker_pool.shutdown pool;
    (try Unix.close pipe_rd with Unix.Unix_error _ -> ());
    try Unix.close pipe_wr with Unix.Unix_error _ -> ()
  in
  { submit; run = ignore; respawn; shutdown }

(* ------------------------------------------------------------ the pipeline *)

(* One serving loop's connections and what answers them.  [release]
   hands a finished connection's fd back: [serve_fd]'s caller owns its
   fd, the socket server closes its own. *)
type pipeline = {
  config : Session.config;
  loop : Event_loop.t;
  exec : executor;
  release : Unix.file_descr -> unit;
  chunk : Bytes.t;
  mutable conns : conn list;
}

let pipeline ~config ~loop ~release exec =
  { config; loop; exec; release; chunk = Bytes.create 65536; conns = [] }

(* Read and stage.  An oversized line parks the [invalid_request]
   goodbye in its own slot, behind the lines before it, and sets [eof]
   rather than [dead]: those replies and the goodbye still flush before
   the socket closes. *)
let on_conn p conn ~readable ~writable =
  if readable then begin
    read_conn conn p.chunk;
    let lines, oversized =
      take_lines conn.inbuf ~limit:p.config.Session.max_line_bytes
    in
    List.iter (p.exec.submit conn) lines;
    if oversized then begin
      Metrics.incr c_oversized;
      park conn (Session.oversized_response_line (), `Errored);
      conn.eof <- true
    end
  end;
  if writable then flush_conn p.loop conn

let add_conn p fd =
  let conn =
    {
      fd;
      inbuf = Buffer.create 256;
      wq =
        Write_queue.create ~fault:"server.write"
          ~cap_bytes:p.config.Session.max_outbox_bytes fd;
      mutex = Mutex.create ();
      outbox = Hashtbl.create 8;
      handle = None;
      next_slot = 0;
      next_write = 0;
      inflight = 0;
      errors = 0;
      eof = false;
      dead = false;
    }
  in
  conn.handle <- Some (Event_loop.watch p.loop fd (on_conn p conn));
  p.conns <- conn :: p.conns

let close_conn p conn =
  Option.iter (Event_loop.unwatch p.loop) conn.handle;
  p.release conn.fd

(* The end of every cycle: let the executor answer what was staged, move
   filled slots into the write queues, flush, and reap every connection
   that is finished — closing and with every claimed slot written.  A
   half-closed connection (the one-shot client pattern) has [eof] set
   but still gets its replies before the close. *)
let on_cycle p () =
  p.exec.run ();
  p.conns <-
    List.filter
      (fun conn ->
        flush_outbox p.loop p.config conn;
        flush_conn p.loop conn;
        if conn.eof then set_interest p.loop conn ~readable:false ();
        if
          (conn.eof || conn.dead)
          && conn.inflight = 0
          && (conn.dead || Write_queue.is_empty conn.wq)
        then begin
          close_conn p conn;
          false
        end
        else true)
      p.conns

(* Graceful drain: stop reading, answer every line already read, then
   give slow readers a bounded grace to take their remaining bytes; a
   client that never reads is cut off at the deadline.  Timers keep
   their cadence, so a wedged pool worker cannot hold the drain hostage
   — the watchdog answers its request.  The first reap runs before any
   poll, so an idle shutdown returns without blocking. *)
let drain p =
  List.iter (fun conn -> conn.eof <- true) p.conns;
  let deadline = Int64.add (Timer.now_ns ()) drain_flush_ns in
  ignore (Event_loop.add_timer p.loop ~delay_ns:drain_flush_ns ignore);
  on_cycle p ();
  Event_loop.run p.loop ~on_cycle:(on_cycle p)
    ~stop:(fun () ->
      p.conns = [] || Int64.compare (Timer.now_ns ()) deadline > 0)

(* ------------------------------------------------- single-connection loop *)

let serve_fd ?(config = Session.default_config) fd =
  let p =
    pipeline ~config ~loop:(Event_loop.create ()) ~release:ignore
      (inline_executor config (fun _ -> Session.create ~config ()))
  in
  Unix.set_nonblock fd;
  add_conn p fd;
  (* The caller owns the fd; hand it back in the blocking state it
     arrived in. *)
  let finally () = try Unix.clear_nonblock fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally @@ fun () ->
  Event_loop.run p.loop ~on_cycle:(on_cycle p) ~stop:(fun () -> p.conns = [])

(* ------------------------------------------------------------ socket loop *)

let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Signals and the listening socket (CLOEXEC + nonblocking: the forked
   chaos tests and respawned worker domains must not inherit serving
   fds, and the accept burst must end in [EWOULDBLOCK], not a block).
   A signal that lands between the loop's [stop] check and its poll is
   handled on the way into poll, which an idle loop would then sleep in
   for good; so the handler also makes [wake] readable. *)
let with_signals_and_listener ~path f =
  let stop = ref false in
  let wake, poke = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake;
  Unix.set_nonblock poke;
  let on_signal _ =
    stop := true;
    try ignore (Unix.write_substring poke "!" 0 1) with Unix.Unix_error _ -> ()
  in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  (* A client closing mid-write must surface as EPIPE, not kill the
     process. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  remove_stale_socket path;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let restore () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    ignore (Sys.signal Sys.sigint prev_int);
    ignore (Sys.signal Sys.sigterm prev_term);
    ignore (Sys.signal Sys.sigpipe prev_pipe);
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ wake; poke ]
  in
  f ~stop ~wake ~listener ~restore

(* Accept everything pending this wakeup, until [EWOULDBLOCK], an
   accept error, or an injected accept fault — which skips one accept:
   the client sees a connection that was never picked up and
   retries. *)
let rec accept_burst listener ~on_fd =
  match
    Fault.point "server.accept" ~f:(fun () -> Unix.accept ~cloexec:true listener)
  with
  | fd, _ ->
      Unix.set_nonblock fd;
      Metrics.incr c_connections;
      on_fd fd;
      accept_burst listener ~on_fd
  | exception (Unix.Unix_error _ | Fault.Injected _) -> ()

let run_socket ?(config = Session.default_config) ?metrics_file
    ?(workers = 1) ~path () =
  check_knobs ~workers config;
  Metrics.enable ();
  Metrics.set g_workers (float_of_int workers);
  let tick_metrics, flush_metrics = metrics_writer metrics_file in
  with_signals_and_listener ~path @@ fun ~stop ~wake ~listener ~restore ->
  let loop = Event_loop.create () in
  let wake_h = Event_loop.watch loop wake (fun ~readable:_ ~writable:_ -> ()) in
  (* Arm the snapshot cadence only when there is a file to write. *)
  if metrics_file <> None then
    ignore
      (Event_loop.add_timer loop ~period_ns:metrics_interval_ns
         ~delay_ns:metrics_interval_ns tick_metrics);
  let cache = Plan_cache.create ~capacity:config.Session.cache_capacity () in
  (* The watchdog and adaptive admission act on pool jobs, so they are
     armed only with a pool; the memory brownout works at every worker
     count. *)
  let pool_only knob = if workers > 1 then knob else None in
  let hung_ms = pool_only config.Session.hung_request_ms in
  let sup =
    Supervisor.create ?hung_ms
      ?queue_delay_target_ms:(pool_only config.Session.queue_delay_target_ms)
      ?max_rss_mb:config.Session.max_rss_mb ~workers ()
  in
  let exec =
    if workers > 1 then pool_executor config ~loop ~cache ~sup ~workers
    else
      inline_executor config (fun inflight_probe ->
          Session.create ~config ~cache ~inflight_probe ())
  in
  let release fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let p = pipeline ~config ~loop ~release exec in
  (* The watchdog/brownout cadence is an event-loop timer, armed only
     when there is something to supervise, so an idle server without
     either makes no timer wakeups at all. *)
  if hung_ms <> None || config.Session.max_rss_mb <> None then begin
    let period_ns = Supervisor.poll_interval_ns sup in
    ignore
      (Event_loop.add_timer loop ~period_ns ~delay_ns:period_ns (fun () ->
           List.iter exec.respawn (Supervisor.monitor sup);
           Supervisor.check_memory sup ~cache))
  end;
  let listener_h =
    Event_loop.watch loop listener (fun ~readable ~writable:_ ->
        if readable then accept_burst listener ~on_fd:(add_conn p))
  in
  let cleanup () =
    exec.shutdown ();
    List.iter (close_conn p) p.conns;
    restore ();
    (* Final snapshot so the last requests before shutdown are visible
       to scrapers. *)
    flush_metrics ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  flush_metrics ();
  Event_loop.run loop ~on_cycle:(on_cycle p) ~stop:(fun () -> !stop);
  Event_loop.unwatch loop listener_h;
  Event_loop.unwatch loop wake_h;
  drain p
