(** Odd–even transposition routing on a path.

    Routing a permutation on the path [P_k] by sorting: tokens carry their
    destination index; alternating rounds compare-and-swap the even pairs
    [(0,1), (2,3), …] and the odd pairs [(1,2), (3,4), …].  A classical
    result (odd–even transposition sort) guarantees completion within [k]
    rounds, and the realized movement is exactly the requested permutation.
    This is the primitive each GridRoute phase runs on every row/column in
    parallel, and the only implementation of it: a line's rounds are
    counted ({!min_parity}), then replayed into a flat schedule
    ({!replay}). *)

val route : int array -> Schedule.t
(** [route dests] routes the permutation on positions [0..k-1] where the
    token at position [i] must reach [dests.(i)], from the parity
    {!min_parity} picks.  Layer [t] holds the swaps [(p, p+1)] of the
    [t]-th non-empty round in ascending [p], so depth ≤ k.
    @raise Invalid_argument if [dests] is not a permutation. *)

val count_layers : int array -> int -> int -> int array -> int
(** [count_layers tokens k parity counts] runs the rounds from the even
    (0) or odd (1) [parity] on [tokens.(0..k-1)], a permutation of
    [0..k-1], in place and without recording a swap: it stores the swap
    count of the [t]-th non-empty round in [counts.(t)] and returns the
    number of non-empty rounds.  [counts] needs [k + 1] entries.
    Allocates nothing. *)

val min_parity :
  int array -> int -> int -> tokens:int array -> even:int array ->
  odd:int array -> sizes:int array -> int
(** [min_parity dests off k ~tokens ~even ~odd ~sizes] picks the starting
    parity of the line whose position [p] holds a token for
    [dests.(off + p)]: odd only when strictly shallower, and the odd one
    not counted when the even depth equals the farthest any token
    travels, which no parity beats.  Adds the chosen parity's swap count
    of its [t]-th non-empty round to [sizes.(t)] and returns the parity.
    [tokens] ([k] entries), [even] and [odd] ([k + 1]) are scratch.
    Allocates nothing. *)

val replay :
  int array -> int -> int -> int -> base:int -> stride:int -> first:int ->
  step:int -> int array -> int array -> int array -> unit
(** [replay dests off k parity ~base ~stride ~first ~step tokens ends fill]
    writes the line's rounds from [parity]: a swap of [(p, p+1)] in the
    [t]-th non-empty round is the vertex pair [base + p * stride],
    [base + (p+1) * stride], written at slot [fill.(first + t) + step] of
    [ends] (slot [i] is [ends.(2i)], [ends.(2i+1)]), and [fill.(first + t)]
    moves to that slot.  [tokens] is scratch of [k] entries. *)

val snake_order : Qr_graph.Grid.t -> int array
(** [snake_order g].(k) is the grid index of the k-th position of the
    boustrophedon path (row 0 left to right, row 1 right to left, …);
    consecutive entries are grid-adjacent. *)

val route_snake : Qr_graph.Grid.t -> Qr_perm.Perm.t -> Schedule.t
(** The 1-D baseline (the [snake] engine): {!route} along
    {!snake_order}.  Depth is Θ(mn) in the worst case against GridRoute's
    O(m + n); on 1×n and m×1 grids it is the path router itself.
    Realizes the permutation (asserted). *)

val depth_upper_bound : int -> int
(** [k] for a path of [k] vertices (the classical guarantee). *)
