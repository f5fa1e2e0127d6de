(** Shared internals of the token-swapping algorithms: the swap digraph D
    and its chain searches.

    One value serves one trial.  It holds the destination of the token on
    each vertex and D itself, in flat arrays: each vertex's row lists its
    neighbors in the trial's priority order, and each slot of a row carries
    a flag telling whether that neighbor is strictly closer to the
    destination of the token on the row's vertex, i.e. whether D has that
    arc.  Placed tokens have no arcs.  A swap moves two tokens, so {!swap}
    refreshes just those two rows; every flag always equals a fresh
    distance comparison on the current tokens.

    [priority] perturbs arc and root order for randomized trials: the
    searches try arcs, and start from vertices, in increasing priority.
    The identity priority gives index order. *)

type t

val create :
  Qr_graph.Graph.t -> (int -> int -> int) -> priority:int array ->
  edges:(int * int) array -> Qr_perm.Perm.t -> t
(** [create g dist ~priority ~edges pi] is D for the tokens of [pi] on [g]
    (the token on [v] is bound for [pi.(v)]), with [dist] the graph's
    distance.  [priority] must be a permutation of the vertices; [edges],
    the order in which {!happy_matching} scans, must hold edges of [g].
    [pi] is copied.  O(V + E·Δ) time for maximum degree Δ.
    @raise Invalid_argument if an element of [edges] is not an edge. *)

val swap : t -> int -> int -> unit
(** Swap the tokens on two adjacent vertices and refresh their rows. *)

val happy_matching : t -> (int * int) list
(** A maximal vertex-disjoint set of happy swaps, the edges whose two arcs
    are both in D (swapping strictly helps both tokens), picked greedily in
    [edges] order; the last pick comes first.  Nothing is swapped. *)

val find_cycle : t -> int array option
(** A directed cycle of D, vertices in arc order, found by a DFS from each
    unplaced vertex in priority order, arcs tried in priority order; [None]
    when D is acyclic.  The DFS reuses the value's scratch arrays. *)

val find_unhappy_arc : t -> (int * int) option
(** The last arc of the maximal D-path that starts at the first unplaced
    vertex in priority order and always takes the first arc in priority
    order; its endpoint carries a placed token.  [None] when every token is
    placed.  Requires D acyclic, otherwise it may not terminate. *)
