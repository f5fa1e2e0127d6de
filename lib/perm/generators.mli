(** Workload generators: the permutation classes of the paper's evaluation.

    Figure 4 distinguishes (a) uniformly random permutations, (b)
    permutations whose cycles live in disjoint blocks ("local mapping"),
    (c) cycles in overlapping blocks, and (d) long skinny cycles stretching
    in orthogonal directions — the adversarial case discussed in §V.  This
    module also supplies deterministic structured permutations (reversal,
    shifts) that exercise known worst cases of grid routing. *)

type kind =
  | Identity
  | Random  (** Uniform over S_{mn} (Fisher–Yates). *)
  | Block_local of int
      (** [Block_local b]: the grid is tiled by aligned [b×b] blocks (ragged
          at the edges); each block's contents are shuffled uniformly, so
          every cycle is confined to one block. *)
  | Overlapping_blocks of int * int
      (** [Overlapping_blocks (b, count)]: compose [count] uniform shuffles
          of [b×b] windows at random (overlapping) offsets; cycles straddle
          window intersections.  [count = 0] picks a default that covers the
          grid about twice. *)
  | Long_skinny of int
      (** [Long_skinny l]: compose cyclic shifts along random horizontal and
          vertical segments of [l] vertices, yielding long, thin, orthogonal
          overlapping cycles. *)
  | Reversal  (** [(r, c) ↦ (m-1-r, n-1-c)] — the grid's hardest involution. *)
  | Row_shift of int  (** Cyclic shift of rows by [k]. *)
  | Col_shift of int  (** Cyclic shift of columns by [k]. *)
  | Mirror_rows  (** [(r, c) ↦ (m-1-r, c)]. *)

val name : kind -> string
(** Short stable label for tables and CLI flags. *)

val of_name : string -> kind option
(** Parse labels produced by {!name}; parameterized kinds accept
    ["block:4"], ["overlap:4x32"], ["skinny:8"], ["rowshift:2"],
    ["colshift:2"] syntax.  A parameter {!generate} would reject is
    [None]: a block side below 1, a skinny length below 2. *)

val generate : Qr_graph.Grid.t -> kind -> Qr_util.Rng.t -> Perm.t
(** Draw one permutation of the grid's vertices.  Deterministic kinds ignore
    the generator. *)

val paper_kinds : Qr_graph.Grid.t -> kind list
(** The four classes of Figure 4 with the block/segment parameters scaled to
    the grid (blocks of ~quarter side, segments of ~full side). *)
