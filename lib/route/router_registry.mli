(** Central engine registry.

    Engines ({!Router_intf.t}) self-register at module-initialization time
    under their stable name, and every caller — the CLI, the server, the
    umbrella's [Qroute.route], benchmarks, tests and examples — names an
    engine by that key or enumerates the registry.  The grid
    engines ([local], [local1], [naive], [snake], [best]) register here;
    the token-swapping engines ([ats], [ats-serial]) live in [qr_token] and
    are registered by the [qroute] umbrella's initialization (or an
    explicit [Qr_token.Engines.register ()]).

    {b Domain safety} (DESIGN.md §13): registration is {e single-threaded
    at init} — all [register] calls must complete (module initialization,
    before any worker domain is spawned) before the registry is read in
    parallel.  After init the registry is effectively frozen; {!find},
    {!get}, {!names}, {!all} and the routing wrappers are then safe from
    any domain.  The degradation tallies ({!verify_failures},
    {!degradations}) are atomics, bumped race-free by workers. *)

val register : Router_intf.t -> unit
(** Add an engine.  Registration order is preserved by {!names}/{!all}.
    The stored engine's [route] is wrapped in the [engine.plan] fault
    point ({!Qr_fault.Fault}) plus the name-qualified [engine.plan.<name>]
    and [engine.slow] / [engine.slow.<name>] points, so injection plans
    can target the leaf computations — or one specific engine — while
    resilience wrappers like {!verified} built on top observe their
    children's faults instead of being re-injected themselves.
    @raise Invalid_argument on a duplicate or empty name. *)

val find : string -> Router_intf.t option

val get : string -> Router_intf.t
(** @raise Invalid_argument for unknown names; the message lists the
    registered engines. *)

val check_config : Router_config.t -> (Router_config.t, string) result
(** {!Router_config.check}, then the rule that needs the registry: every
    [best_of] contender is a registered engine other than [best].  Every
    configuration from outside the program passes through here. *)

val names : unit -> string list
(** Registered names, in registration order. *)

val all : unit -> Router_intf.t list

val route_generic :
  ?config:Router_config.t ->
  Router_intf.t ->
  Qr_graph.Graph.t -> Qr_graph.Distance.t -> Qr_perm.Perm.t -> Schedule.t
(** Route on an arbitrary connected coupling graph.  Grid-only engines
    fall back to the generic ["ats"] engine {e explicitly}: the
    [router_fallbacks] counter is bumped and a warning is printed to
    stderr once per engine name.  @raise Invalid_argument if the fallback
    engine is not registered (link the [qroute] umbrella or call
    [Qr_token.Engines.register ()]). *)

val compaction_only : Router_config.t -> Router_config.t
(** The configuration an engine without the transpose race reads when it
    reads nothing else: [compaction] kept, [transpose] off, every other
    field at its default.  The base of each registered engine's
    [normalize]. *)

(** {2 Verified routing}

    The serving stack's "never emit an unroutable schedule" guarantee:
    {!verified} wraps any engine so every schedule it produces is checked
    against the routing invariant before escaping, degrading through a
    fallback chain when the engine misbehaves (DESIGN.md §11). *)

exception Verification_failed of { engine : string; reason : string }
(** Raised by a {!verified} engine when the wrapped engine {e and} every
    fallback in the chain failed to produce a valid schedule. *)

val validate : Router_intf.input -> Schedule.t -> (unit, string) result
(** The invariant itself: every layer a matching of the coupling graph
    ({!Schedule.is_valid}) and the whole schedule realizing the requested
    permutation ({!Schedule.realizes}).  The error says which half
    failed. *)

val verified : ?breaker:Breaker.t -> Router_intf.t -> Router_intf.t
(** [verified engine] routes with [engine], checks the result with
    {!validate}, and on an invalid schedule {e or} a raising engine
    retries down the fallback chain [["ats"; "naive"]] (the wrapped
    engine's own name and, on generic-graph inputs, grid-only chain
    members are skipped).  Each failure bumps [router_verify_failures]
    and warns once per engine name; each rescue bumps [router_degraded]
    and records a [degraded_to] span attribute.  Exhausting the chain
    raises {!Verification_failed}.  The wrapper keeps the engine's name
    and capabilities, so plan-cache keys and span attributes are
    unchanged.

    With [breaker], the primary engine's outcome feeds the circuit
    breaker on every request, and while the breaker is open the primary
    is skipped entirely — the request degrades straight down the chain
    (a [breaker_rejected] span attribute marks it; the chain exhausting
    still raises {!Verification_failed}).  Fallback outcomes never feed
    the breaker — it judges only the engine it guards. *)

val verify_failures : unit -> int
(** Process-wide count of verification failures (primary or fallback),
    counted even when metrics collection is off — the [health] method's
    degradation report. *)

val degradations : unit -> int
(** Process-wide count of requests rescued by a fallback engine. *)
