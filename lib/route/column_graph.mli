(** The paper's column bipartite multigraph [G^[a,b]].

    For an [m×n] grid and permutation [π], the multigraph has the [n]
    columns on both sides and one edge [j → j'] labelled [(i, i')] for every
    qubit with [π(i,j) = (i',j')].  It is [m]-regular, so it decomposes into
    [m] perfect matchings; restricting to source rows [a..b] gives the
    banded subgraphs the locality-aware search scans ({!scan_band}); the
    band of rows [0..m-1] is the whole multigraph.

    Edges are indexed by the source vertex's flat grid index, so the label
    arrays are total and O(1) to consult, and the edges of source row [r]
    are the contiguous ids [r*n .. r*n + n - 1]. *)

type t

val build : Qr_graph.Grid.t -> Qr_perm.Perm.t -> t
(** [build grid pi].  @raise Invalid_argument unless [pi] has one entry
    per vertex, each a vertex. *)

val build_transposed : Qr_graph.Grid.t -> Qr_perm.Perm.t -> t
(** [build_transposed grid pi] is the column graph of the transposed
    instance, equal to
    [build (Grid.transpose grid) (Grid_perm.transpose grid pi)], built from
    the shape alone: no transposed grid or permutation is materialized. *)

val rows : t -> int
(** [m] — also the multigraph's regularity degree. *)

val cols : t -> int
(** [n] — the number of vertices on each side. *)

val num_edges : t -> int
(** [m * n]. *)

val src_col : t -> int -> int

val dst_col : t -> int -> int

val src_row : t -> int -> int

val dst_row : t -> int -> int

val scan_band :
  t -> live:bool array -> lo:int -> hi:int ->
  ids:int array -> src:int array -> dst:int array -> int
(** [scan_band t ~live ~lo ~hi ~ids ~src ~dst] writes the live edges whose
    source row lies in [lo..hi] (inclusive), ascending by id, into the
    first entries of [ids], with their source and destination columns in
    [src] and [dst] (the flat form {!Qr_bipartite.Hopcroft_karp.max_matching}
    consumes), and returns how many there are.  Reads only the band's rows.
    @raise Invalid_argument unless [0 <= lo <= hi < rows t]. *)
