(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast, splittable
    generator with 64 bits of state, good enough for workload generation and
    property-based testing (it is not cryptographic). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from [seed].  Equal seeds yield
    identical streams. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to give
    each benchmark trial its own substream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.  @raise
    Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle of the whole array. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    empty input. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] draws [k] distinct values from [0..n-1]
    (order unspecified).  @raise Invalid_argument if [k > n] or [k < 0]. *)
