(** Hopcroft–Karp maximum matching on bipartite (multi)graphs.

    Edges are given positionally: edge [k] joins left vertex [l ∈ [0..nl)]
    to right vertex [r ∈ [0..nr)].  Parallel edges are allowed (the paper's
    column multigraph [G^[a,b]] has them); the matching then selects a
    specific edge index, which is how the router recovers the row labels
    attached to each edge.

    There is one core, {!max_matching}, on flat int arrays and reusable
    scratch.  The router's band drain (every perfect-matching extraction,
    [Qr_route.Local_grid_route]) and the MCBBM threshold solves
    ({!Bottleneck.solve_complete}) call it directly; {!solve} is its form
    for an [(l, r)] pair array.

    Runs in O(E·√V), the same complexity family as the Kao–Lam–Sung–Ting
    routine the paper cites (see DESIGN.md §4 on this substitution). *)

type result = {
  size : int;  (** Number of matched pairs. *)
  left_match : int array;
      (** [left_match.(l)] is the index into [edges] of the edge matching
          [l], or [-1]. *)
  right_match : int array;  (** Same, indexed by right vertices. *)
}

type workspace
(** Reusable scratch buffers (adjacency build, BFS layers, queue) for
    repeated solves.  Buffers grow monotonically to the largest instance
    seen. *)

val workspace : unit -> workspace
(** A fresh, empty workspace. *)

val max_matching :
  workspace ->
  nl:int -> nr:int -> ne:int -> src:int array -> dst:int array ->
  left_match:int array -> right_match:int array -> int
(** The matching core, on flat arrays: edge [k < ne] joins left vertex
    [src.(k)] to right vertex [dst.(k)].  Writes the index of the edge
    matching each vertex (or [-1]) into [left_match.(0..nl-1)] and
    [right_match.(0..nr-1)], and returns the matching's size.  Allocates
    nothing once the workspace has grown to the instance.  Ties are broken
    by edge order, exactly as {!solve} breaks them.
    @raise Invalid_argument on out-of-range endpoints. *)

val solve : nl:int -> nr:int -> edges:(int * int) array -> result
(** Maximum-cardinality matching.  Deterministic: ties are broken by edge
    order.  @raise Invalid_argument on out-of-range endpoints. *)
