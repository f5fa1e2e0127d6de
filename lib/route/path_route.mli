(** Odd–even transposition routing on a path.

    Routing a permutation on the path [P_k] by sorting: tokens carry their
    destination index; alternating rounds compare-and-swap the even pairs
    [(0,1), (2,3), …] and the odd pairs [(1,2), (3,4), …].  A classical
    result (odd–even transposition sort) guarantees completion within [k]
    rounds, and the realized movement is exactly the requested permutation.
    This is the primitive each GridRoute phase runs on every row/column in
    parallel. *)

val route : int array -> (int * int) list list
(** [route dests] routes the permutation on positions [0..k-1] where the
    token at position [i] must reach [dests.(i)].  Returns layers of
    position pairs [(p, p+1)]; empty rounds are dropped, so depth ≤ k and
    trailing/leading idle rounds cost nothing.  Starts with the even phase.
    @raise Invalid_argument if [dests] is not a permutation. *)

val route_from_parity : int -> int array -> (int * int) list list
(** {!route} starting with the even (0) or the odd (1) phase. *)

val route_min_parity : int array -> (int * int) list list
(** Run both starting parities and keep the shallower schedule (the even
    one on a tie) — a free constant-factor win the routers use by
    default. *)

val count_layers : int array -> int -> int -> int array -> int
(** [count_layers tokens k parity counts] runs the rounds of
    [route_from_parity parity] on [tokens.(0..k-1)], a permutation of
    [0..k-1], in place and without recording a swap: it stores the swap
    count of the [t]-th non-empty round in [counts.(t)] and returns the
    number of non-empty rounds, the depth of that schedule.  [counts] needs
    [k + 1] entries.  Allocates nothing. *)

val depth_upper_bound : int -> int
(** [k] for a path of [k] vertices (the classical guarantee). *)
