(** Reusable planning scratch shared across routing calls.

    A workspace bundles the buffers the planning phase would otherwise
    allocate per call — the column multigraph's edge arrays and the
    Hopcroft–Karp scratch — so a batched entry point
    ({!Router_intf.route_many}) or a transpiler issuing one routing call
    per slice can amortize them.  Workspaces are purely an allocation
    optimization: results are bit-identical with or without one.  A
    workspace holds scratch only; a request's cancellation token reaches
    the planning loops as the domain's ambient {!Qr_util.Cancel.t}.

    {b Domain safety} (DESIGN.md §13): a workspace is strictly owned by
    the domain that called {!create} — one workspace per worker, never
    shared.  The accessors enforce this: used from any other domain,
    {!reusable_cg}/{!hk} return [None] and {!remember_cg} is a no-op, so
    a mis-shared workspace silently degrades to per-call allocation
    instead of racing. *)

type t

val create : unit -> t

(** {2 Plumbing for engine implementations} *)

val remember_cg : t -> Column_graph.t -> unit
(** Store the column graph of the call in flight so the next call can
    cannibalize its arrays ({!Column_graph.build}'s [reuse]). *)

val reusable_cg : t option -> Column_graph.t option
(** The column graph available for reuse, if any. *)

val hk : t option -> Qr_bipartite.Hopcroft_karp.workspace option
(** The Hopcroft–Karp scratch, if a workspace is present. *)
