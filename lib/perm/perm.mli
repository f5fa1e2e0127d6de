(** Permutations of [0..n-1] as destination arrays.

    A permutation [p] sends the token starting at position [i] to position
    [p.(i)] — the routing problem's "where must each qubit go".  Arrays are
    treated as immutable values; every function returns fresh storage. *)

type t = int array
(** [p.(src) = dst].  Invariant: a bijection on [0..n-1]; constructors check
    it, see {!is_permutation}. *)

val is_permutation : int array -> bool
(** Whether the array is a bijection on [0..length-1]. *)

val check : int array -> t
(** Identity on valid input.  @raise Invalid_argument otherwise. *)

val identity : int -> t

val is_identity : t -> bool

val equal : t -> t -> bool

val size : t -> int

val inverse : t -> t
(** [inverse p].(p.(i)) = i]. *)

val compose : t -> t -> t
(** [compose p q] applies [p] first, then [q]: [(compose p q).(i) =
    q.(p.(i))].  @raise Invalid_argument on size mismatch. *)

val transposition : int -> int -> int -> t
(** [transposition n i j] swaps [i] and [j], fixing everything else. *)

val of_cycles : int -> int list list -> t
(** [of_cycles n cycles] builds the permutation whose cycle decomposition is
    [cycles]; elements not mentioned are fixed.  Each cycle
    [[a; b; c]] sends [a→b→c→a].  @raise Invalid_argument on repeated or
    out-of-range elements. *)

val cycles : t -> int list list
(** Cycle decomposition, fixed points omitted.  Canonical form: every cycle
    starts at its smallest element; cycles sorted by that element. *)

val fixpoints : t -> int list
(** Positions [i] with [p.(i) = i], ascending. *)

val support_size : t -> int
(** Number of displaced positions. *)

val parity : t -> int
(** [0] for even permutations, [1] for odd. *)

val total_distance : (int -> int -> int) -> t -> int
(** [total_distance dist p] is [Σ_i dist i p.(i)] — the displacement lower
    bound driving token-swapping analyses ([#swaps ≥ total/2],
    [depth ≥ max_i dist i p.(i)]). *)

val max_distance : (int -> int -> int) -> t -> int
(** [max_i dist i p.(i)], a depth lower bound for any routing schedule. *)

val pp : Format.formatter -> t -> unit
(** Cycle-notation rendering, e.g. ["(0 3 1)(2 4)"]; ["id"] for identity. *)

val to_string : t -> string
