(** Readiness-driven event loop for the serving stack (DESIGN.md §15).

    Wraps [poll(2)] ({!Qr_util.Sys_poll}) behind the three things a
    single-domain server loop needs:

    - {e fd interest}: per-descriptor read/write interest with a
      callback receiving which direction(s) fired.  [POLLERR]/[POLLHUP]
      are folded into whatever interest the fd had armed, so the normal
      read/write path discovers the error itself;
    - {e timers}: one-shot and periodic, fired in due order.  Periodic
      timers {e coalesce}: a tick delayed past one or more periods fires
      once and reschedules from now, never burst-fires to catch up.
      This is what drives the metrics-snapshot cadence and the
      supervisor's watchdog scan — an idle server with no timers armed
      makes {e zero} wakeups, where the old loop ticked every second;
    - {e wakeup accounting}: every return from the kernel (ready or
      timeout, not [EINTR]) bumps {!wakeups} and the
      [server_loop_wakeups] counter, which the "idle server sleeps" test
      turns into wakeups/sec.

    The poll call runs under the [server.poll] fault point: a chaos plan
    can inject [EINTR] storms or delays into the multiplexer itself; an
    injected raise is absorbed as a zero-ready wakeup.

    Capacity: [poll(2)] has no [FD_SETSIZE] cap, so the loop is bounded
    only by the process fd limit.

    Single-owner: one domain creates, registers and runs; callbacks run
    on that domain.  Worker domains reach the loop only through
    self-pipe writes (a watched readable fd). *)

type t

val create : unit -> t

val fd_count : t -> int
(** Currently watched descriptors. *)

(** {2 Descriptor interest} *)

type handle

val watch :
  t ->
  ?readable:bool ->
  ?writable:bool ->
  Unix.file_descr ->
  (readable:bool -> writable:bool -> unit) ->
  handle
(** Register a descriptor (default interest: [readable], not
    [writable]).  The callback runs once per wakeup with which armed
    direction(s) are ready; at least one of the two is [true].
    Callbacks may watch/unwatch/re-arm freely — changes take effect the
    same cycle for interest, next cycle for the poll set. *)

val set_interest : t -> handle -> ?readable:bool -> ?writable:bool -> unit -> unit
(** Re-arm a handle's interest; omitted directions keep their value.  A
    handle with neither interest stays registered but is skipped. *)

val unwatch : t -> handle -> unit
(** Forget the handle (idempotent).  Does not close the fd. *)

(** {2 Timers} *)

type timer

val add_timer : t -> ?period_ns:int64 -> delay_ns:int64 -> (unit -> unit) -> timer
(** Fire the callback once after [delay_ns] (clamped to [>= 0]); with
    [period_ns] (positive), keep firing every period, coalescing missed
    ticks.  Due timers fire in due order after fd dispatch. *)

val cancel_timer : t -> timer -> unit
(** Idempotent; a cancelled timer never fires again. *)

(** {2 Running} *)

val wakeups : t -> int
(** Kernel returns (ready or timeout) since {!create}; [EINTR] and
    injected [server.poll] faults are not wakeups. *)

val run_once : t -> unit
(** One cycle: block until readiness or the next timer (indefinitely if
    neither is armed — a signal's [EINTR] still returns), dispatch fd
    callbacks, then fire due timers.  Returns without dispatching on
    [EINTR]. *)

val run : ?on_cycle:(unit -> unit) -> t -> stop:(unit -> bool) -> unit
(** [run_once] until [stop ()] — checked before every cycle, so a
    signal handler flipping the flag mid-poll takes effect immediately
    after the interrupted call.  [on_cycle] runs after each cycle
    (dispatch {e and} timers), the seam where the serving loops stage
    parsed lines, drain response queues, and reap dead connections. *)
