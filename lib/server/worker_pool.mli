(** Fixed pool of worker domains for the serving stack.

    A pool owns [workers] OCaml 5 domains consuming work from two
    internal queues under one mutex+condition pair:

    - the {e job queue} (bounded): whole requests submitted by the
      server's accept/IO loop with {!submit}, which refuses — returns
      [false] — instead of blocking when the bound is reached, so the
      caller can shed with [overloaded] immediately;
    - the {e task queue} (unbounded; fan-out is already capped by
      [max_batch]): sub-items fanned out by {!map_tasks} from inside a
      running job — how [route_batch] parallelizes its items.

    Workers prefer tasks over jobs, and a domain blocked in
    {!map_tasks} {e helps}: it runs queued tasks while its own futures
    are pending — never jobs, which could re-enter the session it is
    itself serving — so a batch makes progress even when every other
    worker is busy.

    Each worker registers its stable index with
    {!Qr_fault.Fault.set_domain_index} (worker [k] is fault-stream
    domain [k + 1]), keeping chaos runs reproducible, and exposes it
    through {!worker_index} for per-worker session lookup and access-log
    stamping.

    Shutdown ({!shutdown}) is a graceful drain: workers finish
    everything queued, then exit and are joined.  The
    [server_queue_depth] gauge tracks jobs queued or running. *)

type t

val create : ?queue_bound:int -> ?notify:(unit -> unit) -> workers:int -> unit -> t
(** Spawn [workers] domains (at least 1).  [queue_bound] caps the job
    queue (default 32, matching [Session.default_config.max_inflight]).
    [notify] is called by a worker after each completed job — the
    server's self-pipe hook: the pipe's read end is just another
    readable fd in the {!Event_loop} interest set, so a finished
    response wakes the accept domain immediately instead of waiting
    out a poll timeout (DESIGN.md §15).
    @raise Invalid_argument when [workers < 1] or [queue_bound < 1]. *)

val workers : t -> int

val submit : t -> (unit -> unit) -> bool
(** Enqueue a job; [false] (nothing enqueued) when the queue is at its
    bound or the pool is stopping.  Jobs must not raise — the worker
    absorbs anything that escapes, but the response plumbing is the
    job's responsibility. *)

val map_tasks : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_tasks pool f items] evaluates [f] on every item across the
    pool and returns the results in input order.  An exception raised
    by any [f item] is re-raised (after all items settle, the first in
    input order wins).  Safe to call from a worker: the calling domain
    helps run queued tasks while waiting.  When the pool is stopping,
    remaining items run inline on the caller. *)

val worker_index : unit -> int option
(** The calling worker's index in [0 .. workers-1]; [None] off-pool
    (e.g. on the main/accept domain). *)

val pending : t -> int
(** Jobs queued plus jobs currently running — the [health] report's
    [inflight] count in pool mode. *)

val replace : t -> int -> unit
(** Respawn worker slot [k] (the supervisor's lost-worker path).  The
    old domain cannot be killed — it is {e superseded}: its slot epoch
    is bumped so it exits its loop at the next check instead of taking
    new work, and it is joined at {!shutdown}.  A job it is still
    running finishes under its own error plumbing (its reply is dropped
    by the supervisor's settle CAS).  The replacement registers the same
    worker index and fault-stream domain.  Bumps
    [server_worker_restarts].  Main domain only; no-op while stopping.
    @raise Invalid_argument on a bad index. *)

val shutdown : t -> unit
(** Stop accepting, let the workers drain both queues, join them.
    Idempotent.  Call only after the submitting loop has stopped. *)
