(** Maximum-cardinality bottleneck bipartite matching (MCBBM).

    Given an edge-weighted bipartite graph, find a maximum-cardinality
    matching minimizing the largest edge weight used.  The paper solves this
    on the complete graph [H(P, [m])] (matchings × rows, weighted by the
    locality metric Δ) to assign each discovered perfect matching to a row.

    Implementation: binary search over the sorted distinct weights, testing
    each threshold with Hopcroft–Karp — the textbook method; the
    Punnen–Nair [16] bound is an optimization of the same scheme (DESIGN.md
    §4). *)

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
    on the matrix itself, starting from the largest per-vertex minimum
    weight, and returns exactly what {!solve} returns on the equivalent
    edge list (rows ascending, columns ascending within a row). *)

val brute_force : nl:int -> nr:int -> edge list -> int
(** Exhaustive bottleneck value over all maximum matchings — exponential;
    only for cross-checking on tiny instances in tests.
    @raise Invalid_argument if [max nl nr > 10]. *)
