(** Cooperative cancellation for the routing hot loops.

    A token carries an absolute monotonic-clock deadline (see
    {!Qr_util.Timer}) and an atomic kill flag a supervisor can set from
    another domain.  It is the one place a served request's time budget
    lives: the serving layer sets it for the request's duration with
    {!with_budget_ms} and checks it with {!check} between phases.  Long-running planning loops —
    band-search sweeps, Hopcroft–Karp phases, token-swapping rounds —
    call {!poll} at bounded intervals; an expired or killed token aborts
    the plan mid-loop with {!Cancelled} instead of burning the domain
    until the phase boundary.

    Cost discipline: {!poll} on {!none} (the default) is one physical
    equality test and a branch, safe in the innermost loops.  On a live
    token every poll reads the kill flag (one atomic load) and only
    every [~64]th poll reads the clock and bumps the {!progress} word —
    the per-token heartbeat the server's watchdog uses to tell a slow
    worker from a wedged one.

    Tokens reach the loops {e ambiently}: the request layer installs the
    current request's token with {!with_ambient} — on its own domain, and
    again inside every closure it fans out to another domain — and the
    loops fetch it once at entry with {!ambient}, with no signature churn
    through the engine stack.  Results are bit-identical with or without
    a live token (the checkpoints only ever raise), which the QCheck
    identity property in [test_supervision] pins down. *)

type reason =
  | Deadline  (** The token's deadline passed. *)
  | Killed  (** {!kill} was called — the watchdog gave up on the request. *)

exception Cancelled of reason

type t

val none : t
(** The shared never-cancelled token; {!kill} and {!set_budget_ms}
    refuse to touch it. *)

val create : unit -> t
(** A fresh token with no deadline. *)

val set_budget_ms : t -> int -> unit
(** [set_budget_ms t ms] makes [t] expire [ms] milliseconds from now, on
    the monotonic clock (owner-domain only).  A budget [<= 0] is already
    expired; a budget too large for the clock saturates to no deadline
    instead of wrapping into the past.  No-op on {!none}. *)

val with_budget_ms : t -> int -> (unit -> 'a) -> 'a
(** [with_budget_ms t ms f] runs [f] with the budget of {!set_budget_ms}
    on [t], then gives [t] back its previous deadline, even on exceptions:
    a request's budget ends with the request, so a token its caller
    reuses does not inherit it. *)

val kill : t -> unit
(** Ask the owner to abort at its next {!poll}/{!check}.  Safe from any
    domain; idempotent; no-op on {!none}. *)

val killed : t -> bool

val progress : t -> int
(** Monotone liveness word, bumped about every 64th {!poll}.  A watchdog
    that sees it advance knows the owner is alive and will honor the
    kill flag on its own. *)

val check : t -> unit
(** Full check (kill flag, then clock).
    @raise Cancelled when the token is killed or past its deadline. *)

val poll : t -> unit
(** Bounded-interval check for hot loops: kill flag every call, clock
    every [~64]th.  @raise Cancelled as {!check}. *)

(** {2 Ambient token}

    One current token per domain, default {!none}. *)

val ambient : unit -> t

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient token for the duration
    of [f], restoring the previous token even on exceptions. *)
