(** Routing schedules in the routing-via-matchings model.

    A schedule is a sequence of {e layers}; each layer is a set of
    vertex-disjoint SWAPs executed in parallel, i.e. a matching of the
    coupling graph.  The schedule's {e depth} (layer count) is the quantity
    the paper minimizes — each layer adds one SWAP-round to the physical
    circuit — and its {e size} is the total SWAP count, the serial
    token-swapping objective.

    A schedule is stored flat: one exactly sized [int array] holding the
    two endpoints of every swap, layer after layer, and one [int array] of
    layer offsets.  No swap is a boxed pair, so a schedule is a record of
    two arrays however many swaps it holds, and a large one is allocated
    straight on the major heap (DESIGN.md, "Kernel allocation").  Nothing else is
    stored, so two schedules with the same layers are structurally equal
    and polymorphic [=] compares them.  {!layers} and {!of_layers} convert
    to and from the list of pair arrays for code that reads or writes one
    layer at a time. *)

type layer = (int * int) array
(** Disjoint swap pairs; order within a layer is irrelevant to the
    permutation but kept by every function here. *)

type t
(** Layers in execution order. *)

val empty : t

val depth : t -> int
(** Number of layers, in O(1). *)

val size : t -> int
(** Total number of swaps, in O(1). *)

val layers : t -> layer list
(** The layers as pair arrays, in execution order. *)

val of_layers : layer list -> t
(** The inverse of {!layers}: [of_layers (layers s) = s].  Layers may be
    empty; nothing is checked ({!is_valid}, {!apply}). *)

val of_flat : ends:int array -> starts:int array -> t
(** A schedule over arrays written in place, as the routing kernel writes
    them: swap [i] is [ends.(2i)]–[ends.(2i+1)], and layer [k] holds swaps
    [starts.(k)] to [starts.(k+1) - 1].  The schedule takes both arrays
    over; the caller must not write to them afterwards.
    @raise Invalid_argument unless [starts] rises from [0] to
    [Array.length ends / 2] without falling. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f u v] on every swap, in execution order. *)

val concat : t -> t -> t
(** Sequential composition: run the first schedule, then the second. *)

val layer_is_matching : n:int -> layer -> bool
(** Endpoint-disjointness and range check (graph-independent). *)

val is_valid : Qr_graph.Graph.t -> t -> bool
(** Every layer is a matching of the graph: endpoints disjoint, every pair
    an edge.  Like {!apply} and {!realizes}, it allocates O(n) words, not
    one array per layer. *)

val is_valid_grid : Qr_graph.Grid.t -> t -> bool
(** [is_valid (Grid.graph grid)], with adjacency read off the coordinates
    (a column apart, or one apart within a row) instead of looked up in
    the graph. *)

val apply : n:int -> t -> Qr_perm.Perm.t
(** The permutation the schedule realizes on [n] vertices: token starting at
    [v] ends at [(apply ~n t).(v)].  @raise Invalid_argument if a layer
    reuses a vertex or indexes out of range. *)

val realizes : n:int -> t -> Qr_perm.Perm.t -> bool
(** [realizes ~n t p] iff [apply ~n t = p], without building the realized
    permutation.  @raise Invalid_argument as {!apply} does. *)

val inverse : t -> t
(** Reversed layer order; realizes the inverse permutation (swaps are
    involutions). *)

val of_swaps : (int * int) list -> t
(** One swap per layer — the serial embedding used to lift token-swapping
    outputs. *)

val swaps : t -> (int * int) list
(** All swaps in execution order (layer by layer). *)

val compact : n:int -> t -> t
(** Greedy ASAP re-layering: each swap moves to the earliest layer after the
    last layer that touched either endpoint.  Preserves the realized
    permutation (only commuting swaps are reordered), never increases depth,
    and keeps every swap (size unchanged).  Used both as a post-pass
    (ablation) and to parallelize serial swap lists. *)

val map_vertices : (int -> int) -> t -> t
(** Relabel every endpoint, e.g. to lift a schedule computed on the
    transposed grid (or on a factor of a product) back to the host graph. *)

val to_json : t -> Qr_obs.Json.t
(** [{"depth": d, "size": s, "layers": [[[u,v], ...], ...]}] — the schedule
    payload of the routing service's wire protocol, also handy for bench
    artifacts.  Round-trips exactly through {!of_json}. *)

val to_buffer : Buffer.t -> t -> unit
(** Append exactly the bytes of [Json.to_string (to_json t)], written in
    one pass with no tree and no allocation beyond the buffer's growth.
    The routing service renders [route] and [route_batch] replies with it
    (DESIGN.md §10). *)

val of_json : Qr_obs.Json.t -> (t, string) result
(** Parse {!to_json}'s shape.  Only ["layers"] is required; ["depth"] and
    ["size"], when present, must agree with the layers.  Swaps must be
    two-element non-negative integer pairs with distinct endpoints (matching
    and edge validity are separate checks — {!layer_is_matching},
    {!is_valid}). *)

val of_json_exn : Qr_obs.Json.t -> t
(** @raise Invalid_argument on malformed input. *)
