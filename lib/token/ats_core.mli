(** Shared internals of the token-swapping algorithms: the swap digraph D
    and the trial loop that drives it.

    One value serves one trial.  It holds the destination of the token on
    each vertex and D itself, in flat arrays: each vertex's row lists its
    neighbors in the trial's priority order, and each slot of a row carries
    a flag telling whether that neighbor is strictly closer to the
    destination of the token on the row's vertex, i.e. whether D has that
    arc.  Placed tokens have no arcs.  A swap moves two tokens, so it
    refreshes just those two rows; every flag always equals a fresh
    distance comparison on the current tokens.

    [priority] perturbs arc and root order for randomized trials: the
    searches try arcs, and start from vertices, in increasing priority.
    The identity priority gives index order. *)

type t

val create :
  Qr_graph.Graph.t -> (int -> int -> int) -> priority:int array ->
  edges:(int * int) array -> Qr_perm.Perm.t -> t
(** [create g dist ~priority ~edges pi] is D for the tokens of [pi] on [g]
    (the token on [v] is bound for [pi.(v)]), with [dist] the graph's
    distance.  [priority] must be a permutation of the vertices; [edges],
    the order in which {!run} harvests happy swaps, must hold edges of
    [g].  [pi] is copied.  O(V + E·Δ) time for maximum degree Δ.
    @raise Invalid_argument if an element of [edges] is not an edge. *)

val swap_cap :
  caller:string -> trials:int -> Qr_graph.Graph.t -> (int -> int -> int) ->
  Qr_perm.Perm.t -> int
(** [swap_cap ~caller ~trials g dist pi] checks the arguments of an ATS
    entry point and gives the safety cap of one trial on [pi]:
    max(4n², 8·Σd + 64) swaps for Σd the total distance of [pi] under
    [dist].  The 4-approximation guarantee keeps honest runs far below it.
    @raise Invalid_argument ["<caller>: ..."] on a size mismatch, a
    non-permutation, a disconnected graph or [trials < 1]. *)

val run : t -> cap:int -> (int * int) list option
(** One ATS trial on D: the swaps in execution order, or [None] once more
    than [cap] swaps have been made.  Each step, in order of preference:

    - a maximal vertex-disjoint set of happy swaps (the 2-cycles of D, both
      tokens strictly closer), picked greedily in [edges] order;
    - a cycle of D, found by a DFS from each unplaced vertex in priority
      order and swapped far end first, so its k tokens each advance one
      arc with k−1 swaps;
    - the single unhappy swap on the last arc of the maximal D-path from
      the first unplaced vertex, which advances one token and displaces a
      placed one.

    Counts the trial and its swaps of each kind in the [ats_trials],
    [ats_happy_swaps], [ats_cycle_swaps] and [ats_unhappy_swaps]
    counters, and polls the ambient {!Qr_util.Cancel} token every step.
    The value is spent afterwards. *)
