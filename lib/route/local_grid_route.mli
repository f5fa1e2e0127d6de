(** The paper's locality-aware routing algorithm (Algorithms 1 and 2).

    Two ideas refine the naive GridRoute baseline:

    - {b Banded discovery} (Algorithm 2, lines 3–18): a doubling search over
      row windows [w = 0, 1, 2, 4, …]; within each band [[r, r+w]] perfect
      matchings of the column multigraph are extracted using only edges
      whose source row lies in the band, so matchings found early touch only
      nearby rows.
    - {b Bottleneck row assignment} (lines 19–20): each matching [M] is
      assigned to a grid row [r] by solving MCBBM on the complete bipartite
      graph weighted by [Δ(M, r) = Σ_j |i_j − r| + Σ_j |i'_j − r|],
      minimizing the worst row-detour any matching's qubits must take.

    Both choices are independently switchable so the ablation benchmarks can
    isolate their contributions; with both off ({!Whole}, {!Arbitrary}) this
    module computes the naive baseline. *)

type discovery =
  | Doubling  (** The paper's banded doubling search (w = 0, 1, 2, 4, …). *)
  | Fixed_band of int
      (** Start from bands of the given height instead of single rows, then
          double as usual — for ablating the window schedule.  Height must
          be positive. *)
  | Whole
      (** Extract from the whole multigraph (locality-blind): one band
          covering every row, drained like any other band.  It stays the
          single band [[0, m−1]] whatever window schedule {!Doubling}
          follows.  With {!Arbitrary} assignment this is the naive
          GridRoute baseline (the [naive] engine). *)

type assignment =
  | Mcbbm  (** Bottleneck assignment by the Δ metric. *)
  | Arbitrary  (** Matching [k] → row [k] (the naive choice). *)

val delta : Column_graph.t -> int array -> int -> int
(** [delta cg matching r] is the paper's Δ(M, r). *)

val deltas : Column_graph.t -> int array -> int array
(** [deltas cg matching] is Δ(M, r) for every row [r], in O(m + n) from a
    histogram of the matching's row labels: the MCBBM weight row of one
    matching.  [(deltas cg matching).(r) = delta cg matching r]. *)

val discover_matchings : discovery -> Column_graph.t -> int array list
(** Decompose the column multigraph into [m] perfect matchings (edge-id
    arrays indexed by column), in discovery order.  Every discovery runs
    the same band drain: take a band's live edges in ascending id order
    ({!Column_graph.scan_band}, once per band), extract perfect matchings
    with {!Qr_bipartite.Hopcroft_karp.max_matching} until none remains,
    and kill each matching's edges, dropping them from the band in
    place.  The result always partitions the edge set (the test suite's
    [Decompose.validate] holds). *)

val assign_rows : assignment -> Column_graph.t -> int array list -> int array
(** Row assigned to each matching, in list order. *)

val sigmas :
  ?discovery:discovery -> ?assignment:assignment ->
  Qr_graph.Grid.t -> Qr_perm.Perm.t -> Grid_route.sigmas
(** Column-phase permutations per Algorithm 2 (default: [Doubling],
    [Mcbbm]). *)

val route :
  ?discovery:discovery -> ?assignment:assignment ->
  Qr_graph.Grid.t -> Qr_perm.Perm.t -> Schedule.t
(** Algorithm 2: LocalGridRoute on the grid as given.  One column graph
    serves the sigmas and the rounds, so the result equals
    [Grid_route.route_with_sigmas grid pi (sigmas grid pi)]. *)

val route_best_orientation :
  ?discovery:discovery -> ?assignment:assignment ->
  Qr_graph.Grid.t -> Qr_perm.Perm.t -> Schedule.t
(** Algorithm 1 (Main Procedure): run LocalGridRoute on [(G, π)] and on the
    transpose [(G^T, π^T)], lift the transposed schedule back, and keep the
    shallower one. *)
