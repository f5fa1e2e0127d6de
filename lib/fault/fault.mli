(** Seeded, deterministic fault injection for the routing stack.

    The serving code is threaded with {e named fault points} — call sites
    like [Fault.point "server.write" ~f] that normally just run [f].  A
    {e plan} (a list of {!spec}s, usually parsed from the [QR_FAULTS]
    environment variable) arms points to misbehave: raise an exception,
    raise a specific [Unix] errno, sleep, shorten an I/O length, or hand a
    call-site-supplied corruptor the value about to be returned.  Every
    probabilistic decision draws from a SplitMix64 stream seeded at
    {!arm} time, so a chaos run is reproducible from
    [(QR_FAULTS, QR_FAULTS_SEED)] alone.

    {b Domain safety} (DESIGN.md §13): the armed plan (firing caps,
    tallies) is shared across domains under an internal mutex, but each
    domain draws probabilities from {e its own} stream — derived
    deterministically from [(seed, domain index)] by {!derive_stream} —
    so a domain's draw sequence depends only on its own fault-point
    visits, never on scheduler interleaving.  The main domain is index 0
    and gets the exact historical single-domain stream; worker pools
    assign stable indexes via {!set_domain_index}.

    Disarmed (the default, and the state {!disarm} restores), every
    helper is a single load-and-branch on the global state — safe to
    leave in hot paths; the benchmark of record ([perfbench]) must not be
    able to tell the fault points are there.

    Plan grammar (also produced by {!to_string}):

    {v
    plan  ::= spec (";" spec)*
    spec  ::= point "=" action ["@" prob] ["#" count]
    action ::= "raise" | "raise(injected)" | "raise(eintr)"
             | "raise(eagain)" | "raise(epipe)" | "raise(econnreset)"
             | "delay(" ms ")" | "truncate" | "corrupt"
    v}

    [@prob] fires the fault with the given probability in (0, 1] (default
    1); [#count] caps the number of firings (default unlimited).  The two
    suffixes compose in either order.  Example:

    {v
    QR_FAULTS="engine.plan=raise@0.3;server.write=truncate@0.5;cache.find=corrupt#2"
    v}

    Fault-point names follow the span/metric schema (DESIGN.md §8, §11):
    [subsystem.operation], e.g. [server.write], [session.dispatch],
    [cache.find], [engine.plan]. *)

exception Injected of string
(** Raised by a point armed with [raise]; carries the point name. *)

type action =
  | Raise  (** Raise {!Injected} at the point. *)
  | Raise_errno of Unix.error
      (** Raise [Unix.Unix_error (errno, "fault", point)] — lets a plan
          exercise EINTR/EAGAIN/EPIPE/ECONNRESET handling without a
          misbehaving kernel or peer. *)
  | Delay_ms of int  (** Sleep before running the wrapped computation. *)
  | Truncate
      (** Shorten the length an I/O call is about to use ({!truncate}). *)
  | Corrupt
      (** Apply the call site's corruptor to the value ({!corrupt}). *)

type spec = {
  point : string;
  action : action;
  prob : float;  (** Firing probability in (0, 1]. *)
  max_fires : int option;  (** Firing cap; [None] is unlimited. *)
}

val parse_plan : string -> (spec list, string) result
(** Parse the plan grammar above.  The empty string is the empty plan.
    Errors name the offending spec. *)

val to_string : spec list -> string
(** Canonical text form; round-trips through {!parse_plan}. *)

val arm : ?seed:int -> spec list -> unit
(** Install a plan (replacing any previous one) and reset firing
    tallies.  [seed] (default 0) seeds the probability stream. *)

val env_var : string
(** ["QR_FAULTS"]. *)

val arm_from_env : unit -> (bool, string) result
(** Arm from [QR_FAULTS] (+ optional [QR_FAULTS_SEED]).  [Ok false] when
    the variable is unset or empty (nothing armed), [Ok true] when a plan
    was armed, [Error _] on a malformed plan or seed. *)

val disarm : unit -> unit
(** Drop the plan; every point reverts to a no-op. *)

val armed : unit -> bool

val plan : unit -> spec list
(** The currently armed plan ([[]] when disarmed). *)

val fires : string -> int
(** Total times any spec at this point has fired since {!arm}. *)

(** {2 Per-domain probability streams} *)

val set_domain_index : int -> unit
(** Register the calling domain's stable stream index (worker pools call
    this with [worker index + 1] at domain start-up).  The main domain
    defaults to index 0; a domain that never registers falls back to its
    runtime domain id — safe, but not reproducible across runs, since
    runtime ids are never reused.  @raise Invalid_argument when
    negative. *)

val derive_stream : seed:int -> domain:int -> Qr_util.Rng.t
(** The probability stream a domain with the given index draws from
    under an armed plan seeded with [seed].  Index 0 is exactly
    [Rng.create seed] (the historical single-domain stream); index
    [i > 0] is an independent substream, deterministic in
    [(seed, i)].  Exposed for tests asserting reproducibility.
    @raise Invalid_argument when [domain] is negative. *)

(** {2 Call-site helpers}

    Each helper reacts only to the action kinds it can apply ({!point}:
    raising and delaying; {!truncate}: [Truncate]; {!corrupt}:
    [Corrupt]); specs of other kinds at the same point are left for the
    matching helper and do not consume firings or probability draws. *)

val point : string -> f:(unit -> 'a) -> 'a
(** Run [f], after applying any armed delay and raising any armed
    exception ([Raise] → {!Injected}, [Raise_errno e] →
    [Unix.Unix_error]).  Disarmed: exactly [f ()]. *)

val corrupt : string -> ('a -> 'a) -> 'a -> 'a
(** [corrupt name mangle v] is [mangle v] when a [Corrupt] spec fires,
    else [v]. *)

val truncate : string -> int -> int
(** [truncate name len] shortens a proposed I/O length to a uniform
    value in [\[1, len)] when a [Truncate] spec fires, else returns
    [len] unchanged.  Lengths [<= 1] always pass through, so retry
    loops keep making progress. *)
