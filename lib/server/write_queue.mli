(** Bounded per-connection write queue for the readiness-driven server.

    The historical loops wrote every response with a {e blocking}
    {!Io_util.write_all} on the accept domain, so one client that
    stopped reading (full kernel buffer) head-of-line-blocked every
    other connection behind it.  A write queue inverts that: responses
    are appended here, the event loop flushes whatever the kernel will
    take each time poll(2) reports the fd writable, and a stalled
    client's backlog grows {e its own} queue only — until the byte cap,
    at which point the server closes the connection
    ([server_slow_client_closes]) instead of holding response memory
    hostage (DESIGN.md §15).  The cap bounds the bytes queued {e behind}
    the line being written: an empty queue accepts any line, so one
    reply larger than the cap is written whole, not mistaken for a
    stalled reader.

    Single-owner: the accept/event-loop domain.  Not thread-safe. *)

type t

val create : ?fault:string -> cap_bytes:int -> Unix.file_descr -> t
(** A queue for one nonblocking descriptor.  [cap_bytes] bounds the
    {e queued} (not yet kernel-accepted) bytes; [fault] names the
    {!Qr_fault.Fault} point applied to every underlying write (the
    serving loops pass ["server.write"]). *)

val enqueue : t -> string -> [ `Ok | `Overflow ]
(** Append [line ^ "\n"].  An empty queue accepts any line.  Otherwise
    [`Overflow] means accepting the line would exceed the byte cap — the
    line is {e not} queued and the caller should treat the connection as
    a slow client and close it.  The
    queue itself is not torn down; already-queued bytes may still be
    flushed if the caller prefers a best-effort goodbye. *)

val flush : t -> [ `Idle | `Pending | `Closed ]
(** Write queued bytes until the queue drains ([`Idle]), the kernel
    stops accepting ([`Pending] — re-arm write interest), or the peer
    is gone ([`Closed]). *)

val pending_bytes : t -> int
(** Bytes queued and not yet accepted by the kernel. *)

val is_empty : t -> bool
(** No queued bytes ([pending_bytes t = 0]). *)
