(** Maximum-cardinality bottleneck bipartite matching (MCBBM).

    Given an edge-weighted bipartite graph, find a maximum-cardinality
    matching minimizing the largest edge weight used.  The paper solves this
    on the complete graph [H(P, [m])] (matchings × rows, weighted by the
    locality metric Δ) to assign each discovered perfect matching to a row.

    Implementation: the textbook threshold method — the smallest weight
    threshold whose kept edges still admit a maximum-cardinality matching,
    each threshold tested with Hopcroft–Karp.  {!solve} binary-searches the
    sorted distinct weights; {!solve_complete} first solves at a lower
    bound that is usually the answer.  The Punnen–Nair [16] bound is an
    optimization of the same scheme (DESIGN.md §4). *)

type edge = { l : int; r : int; weight : int }

type solution = {
  bottleneck : int;
      (** Largest weight in the returned matching; [min_int] when the
          matching is empty. *)
  pairs : (int * int) list;  (** Matched [(l, r)] pairs. *)
  left_match : int array;  (** Right partner per left vertex, or [-1]. *)
}

val solve : nl:int -> nr:int -> edge list -> solution
(** Maximum cardinality first, then minimal bottleneck.
    @raise Invalid_argument on out-of-range endpoints. *)

val solve_complete : weights:int array array -> solution
(** The complete-bipartite case: [weights.(l).(r)] gives every edge; sides
    sized by the matrix.  Requires a rectangular matrix.  Probes thresholds
    on the matrix itself.  The first probe is the floor, the largest
    per-vertex minimum weight on the smaller side, below which no threshold
    is feasible; when that matching saturates the smaller side it is the
    result, after one Hopcroft–Karp solve.  Otherwise the distinct weights
    above the floor are binary-searched and the smallest feasible one is
    solved again.  Every probe is a cold solve over the kept edges in the
    equivalent edge list's order (rows ascending, columns ascending within
    a row), so the result is exactly what {!solve} returns on that list.
    Each probe counts once in the [bottleneck_thresholds_probed] metric. *)

val brute_force : nl:int -> nr:int -> edge list -> int
(** Exhaustive bottleneck value over all maximum matchings — exponential;
    only for cross-checking on tiny instances in tests.
    @raise Invalid_argument if [max nl nr > 10]. *)
