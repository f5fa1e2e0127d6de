(** Bounded LRU cache of routing results.

    Routing is deterministic — the schedule for a [(grid, permutation,
    engine, configuration)] quadruple never changes — so a long-lived
    service can answer repeated requests without replanning.  Keys
    canonicalize the quadruple as the grid dimensions, the permutation's
    length and its destination array in a fixed-width binary encoding (4
    little-endian bytes per entry below 2^31 vertices, 8 above), the
    engine's registry name and the configuration's canonical text form.
    The fixed-width fields come first and the engine name is
    length-prefixed, so two keys are equal exactly when all of their
    parts are: no digest, so no collision.  The routing service passes the
    engine's normalized configuration ([Router_intf.t]'s [normalize]), so
    requests that differ only in fields the engine never reads share one
    key.  Cached schedules are returned as-is, so a hit is
    byte-identical to the original response.

    Hits, misses and evictions are counted both per cache (the accessors
    below, for [health] reports and tests) and in the global
    {!Qr_obs.Metrics} registry ([plan_cache_hits], [plan_cache_misses],
    [plan_cache_evictions]) when collection is enabled.

    Fault points: [cache.find] fires on every lookup (raising actions
    simulate a broken cache; [corrupt] mangles the {e returned} schedule
    — the stored entry is untouched, so {!remove} + replan heals the
    key) and [cache.insert] fires on every store.  See DESIGN.md §11.

    {b Domain safety} (DESIGN.md §13): safe to share one cache across
    worker domains — a single internal mutex guards the table, the LRU
    recency list and the per-cache stat counters together, so entries
    never tear and [hits + misses] always equals the number of lookups.
    Eviction order stays globally exact (one lock, no shards);
    [find_or_add] runs [compute] outside the lock, so two domains
    missing on the same key concurrently may both plan — idempotent,
    since routing is deterministic. *)

type t

type key

val key :
  grid:Qr_graph.Grid.t ->
  pi:Qr_perm.Perm.t ->
  engine:string ->
  config:Qr_route.Router_config.t ->
  key
(** One string of about [4n] bytes, after the config's text.
    @raise Invalid_argument when an entry of [pi] lies outside
    [0..n-1]. *)

val create : ?capacity:int -> unit -> t
(** Default capacity 128.  A capacity of 0 disables caching (every lookup
    misses, nothing is stored).  @raise Invalid_argument when negative. *)

val capacity : t -> int
(** The configured (hard) capacity, fixed at {!create}. *)

val limit : t -> int
(** The effective (soft) capacity — equal to {!capacity} unless lowered
    by {!set_limit}. *)

val set_limit : t -> int -> unit
(** Shrink (or restore, up to {!capacity}) the effective capacity,
    evicting least-recently-used entries down to the new limit — the
    memory-brownout lever ({!Supervisor}): a browned-out server keeps
    serving but stops holding plans.  A limit of 0 disables caching.
    Evictions count as evictions.  @raise Invalid_argument when
    negative. *)

val length : t -> int

val find : t -> key -> Qr_route.Schedule.t option
(** Lookup; a hit refreshes the entry's recency and bumps the hit
    counters, a miss bumps the miss counters. *)

val add : t -> key -> Qr_route.Schedule.t -> unit
(** Insert (or overwrite) an entry, evicting the least recently used entry
    when past capacity. *)

val find_or_add :
  t -> key -> (unit -> Qr_route.Schedule.t) -> Qr_route.Schedule.t * bool
(** [find_or_add t k compute] returns [(schedule, cached)]: the cached
    schedule with [true], or [compute ()] — inserted — with [false]. *)

val remove : t -> key -> unit
(** Drop one entry (no-op when absent).  Does not count as an eviction —
    the caller is invalidating, not aging out; {!Session} uses this to
    shed entries whose schedules fail re-verification. *)

val clear : t -> unit
(** Drop every entry; the hit/miss/eviction counters are kept. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
