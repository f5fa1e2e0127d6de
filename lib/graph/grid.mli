(** The [rows × cols] grid coupling graph and its coordinate arithmetic.

    Following the paper's convention, the grid is the Cartesian product
    [P_rows □ P_cols]: vertex [(r, c)] with [r] a row index in [0..rows-1]
    and [c] a column index in [0..cols-1].  Internally vertices are flattened
    row-major: [index (r, c) = r * cols + c].  All routing code addresses
    vertices by flat index; this module is the single place that knows the
    encoding. *)

type t

val make : rows:int -> cols:int -> t
(** Build the grid.  @raise Invalid_argument unless both dimensions are
    positive and [rows * cols] fits in an [int]. *)

val rows : t -> int

val cols : t -> int

val size : t -> int
(** [rows * cols]. *)

val graph : t -> Graph.t
(** Underlying coupling graph. *)

val index : t -> int -> int -> int
(** [index g r c] flattens a coordinate.  @raise Invalid_argument when out of
    bounds. *)

val coord : t -> int -> int * int
(** [coord g v] is the [(row, col)] of flat index [v]. *)

val row_of : t -> int -> int

val col_of : t -> int -> int

val in_bounds : t -> int -> int -> bool

val manhattan : t -> int -> int -> int
(** Shortest-path distance between two flat indices (closed form). *)

val transpose : t -> t
(** The [cols × rows] grid. *)

val transpose_vertex : t -> int -> int
(** [transpose_vertex g v] maps flat index [v] of [g] to the flat index of
    the mirrored coordinate [(c, r)] in [transpose g]. *)

val vertices_in_row : t -> int -> int array
(** Flat indices of a row, left to right. *)

val vertices_in_col : t -> int -> int array
(** Flat indices of a column, top to bottom. *)

val pp : Format.formatter -> t -> unit
