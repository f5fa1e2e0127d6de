(** Exact token-swapping and routing-depth solvers by state-space search.

    Both problems are NP-hard; these brute-force BFS solvers exist solely to
    calibrate the heuristics on tiny instances in the test suite. *)

val min_swaps : ?max_states:int -> Qr_graph.Graph.t -> Qr_perm.Perm.t -> int
(** Minimum number of swaps realizing the permutation: BFS over token
    configurations, one edge-swap per move.  @raise Invalid_argument if the
    graph has more than 10 vertices.  @raise Failure when [max_states]
    (default 2_000_000) is exhausted. *)

val min_depth : ?max_states:int -> Qr_graph.Graph.t -> Qr_perm.Perm.t -> int
(** Minimum number of matchings (layers) realizing the permutation: BFS
    whose moves are all non-empty matchings of the graph.  Same limits. *)

val matchings_of_graph : Qr_graph.Graph.t -> (int * int) list list
(** Every non-empty matching of the graph (exponential; tiny graphs only).
    Exposed for tests. *)
