(** Thin binding to [poll(2)].

    [Unix.select] has two defects the serving loops care about: it
    cannot watch descriptors numbered [>= FD_SETSIZE] (typically 1024 —
    it raises [EINVAL], taking the whole accept loop down with it), and
    rebuilding [fd_set]s every call costs O(highest fd) in the kernel.
    [poll(2)] has neither problem, and it is POSIX, so
    {!Qr_server.Event_loop} uses this binding on every platform the
    stubs build on.

    The interface is deliberately array-in/array-out so a long-lived
    event loop can re-poll without allocating: the caller keeps three
    parallel arrays of the same length and reuses them across calls. *)

val pollin : int
(** Interest/result bit: readable (data, EOF, or a pending accept). *)

val pollout : int
(** Interest/result bit: writable. *)

val pollerr : int
(** Result-only bit: [POLLERR]/[POLLHUP]/[POLLNVAL] folded together.
    The loop surfaces it as readiness on whatever interest the fd had,
    so the normal read/write path discovers the error itself. *)

val poll :
  fds:Unix.file_descr array ->
  events:int array ->
  revents:int array ->
  timeout_ms:int ->
  int
(** [poll ~fds ~events ~revents ~timeout_ms] waits until at least one
    descriptor is ready or the timeout elapses.  [events.(i)] is the
    interest mask for [fds.(i)]; [revents.(i)] is overwritten with the
    result mask.  [timeout_ms < 0] blocks indefinitely; [0] polls.
    Returns the number of ready descriptors (0 on timeout).

    @raise Unix.Unix_error [EINTR] when interrupted by a signal (the
    caller re-checks its stop flag and re-polls).
    @raise Failure on any other errno. *)
