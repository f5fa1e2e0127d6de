(** Routing on Cartesian products [G1 □ G2] — the paper's "grid-like"
    extension (§IV-C).

    The 3-round scheme carries over verbatim: the column multigraph's sides
    become the vertices of [G2], its regularity degree [|V1|]; rounds 1 and
    3 route inside the copies of [G1], round 2 inside the copies of [G2].
    Odd–even transposition is replaced by caller-supplied routers for the
    factors, so the same code routes grids (path factors), cylinders
    (path □ cycle), tori, and anything else.

    Locality-aware selection generalizes by replacing [|i − r|] with the
    graph distance [d_{G1}]; the banded doubling search runs over windows of
    [G1]'s vertex order, which coincides with the paper's row bands when
    [G1] is a path.

    The product flattens [(u, v)] to [u·|V2| + v], as the [|V1|×|V2|] grid
    flattens [(row, col)], so the column multigraph, the band search and
    the [σ]s are the grid's own ({!Column_graph.build},
    {!Local_grid_route.discover_matchings},
    {!Grid_route.sigmas_of_assignment}).  Only the [d_{G1}]-weighted MCBBM
    and the factor-router rounds are specific to products. *)

type factor_router = Qr_graph.Graph.t -> Qr_perm.Perm.t -> Schedule.t
(** A routine that realizes a permutation on a factor graph; the returned
    schedule must be valid for that graph and realize the permutation (both
    are rechecked on the lifted product schedule in debug builds). *)

val route :
  ?locality:bool ->
  route1:factor_router ->
  route2:factor_router ->
  Qr_graph.Product.t ->
  Qr_perm.Perm.t ->
  Schedule.t
(** Route [π] on the product.  [locality] (default [true]) enables banded
    discovery plus MCBBM assignment with the [d_{G1}]-generalized Δ;
    otherwise an arbitrary decomposition/assignment is used. *)

val route_best_orientation :
  ?locality:bool ->
  route1:factor_router ->
  route2:factor_router ->
  Qr_graph.Product.t ->
  Qr_perm.Perm.t ->
  Schedule.t
(** Also try [G2 □ G1] with the mirrored permutation and keep the shallower
    schedule (the product analogue of Algorithm 1). *)
