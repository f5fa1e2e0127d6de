(** Lower bounds on routing cost, for optimality-gap reporting.

    Any schedule realizing [π] must satisfy:

    - depth ≥ the largest graph distance any token must travel (each layer
      moves a token at most one edge);
    - depth ≥ the {e cut bound}: a layer carries at most one token per cut
      edge in each direction, so if [k] tokens must cross a cut of [w]
      edges rightward, depth ≥ ⌈k / w⌉ (grids: evaluated on every
      vertical and horizontal line cut);
    - size ≥ ⌈Σ_v d(v, π(v)) / 2⌉ (a swap shortens total displacement by
      at most 2).

    The benches report each router's depth against {!depth_lower_bound};
    the tests assert no router ever beats these. *)

val size_lower_bound : (int -> int -> int) -> Qr_perm.Perm.t -> int
(** ⌈Σ distances / 2⌉. *)

val grid_cut_bound : Qr_graph.Grid.t -> Qr_perm.Perm.t -> int
(** Max over all vertical/horizontal line cuts and both directions of
    ⌈crossing tokens / cut width⌉. *)

val depth_lower_bound : Qr_graph.Grid.t -> Qr_perm.Perm.t -> int
(** Max of the displacement and cut bounds on the grid. *)
