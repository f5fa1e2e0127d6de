(** The 3-round GridRoute of Alon–Chung–Graham, parameterized by the
    column-phase permutations [σ_1..σ_n].

    Round 1 routes every column [j] in parallel, sending the qubit at row
    [i] to row [σ_j(i)]; round 2 routes every row in parallel to destination
    columns; round 3 routes every column to destination rows.  Any family of
    [σ]s derived from a perfect-matching decomposition of the column
    multigraph makes rounds 2–3 well-defined ({!sigmas_of_assignment}).
    The decomposition and the row assignment come from
    {!Local_grid_route}: the naive baseline of [1] is its whole-multigraph
    discovery with the arbitrary assignment "k-th matching → row k"
    ([Local_grid_route.route ~discovery:Whole ~assignment:Arbitrary], the
    [naive] engine), which the paper's locality-aware choices improve
    on. *)

type sigmas = int array array
(** [sigmas.(j).(i)] is the round-1 target row of the qubit starting at
    [(i, j)]; each [sigmas.(j)] is a permutation of rows. *)

val sigmas_of_assignment :
  Column_graph.t -> matchings:int array list -> assigned_rows:int array -> sigmas
(** Given perfect matchings of the column multigraph (each an array mapping
    a column to its matched edge id) and [assigned_rows.(k)], the grid row
    assigned to matching [k], derive the [σ]s.  @raise Invalid_argument if
    [assigned_rows] is not a permutation of the rows or the matchings do
    not partition the qubits of each column. *)

val check_sigmas : Qr_graph.Grid.t -> Qr_perm.Perm.t -> sigmas -> bool
(** The GridRoute precondition: after round 1, destination columns are
    distinct within every row. *)

val route_with_sigmas :
  Qr_graph.Grid.t -> Qr_perm.Perm.t -> sigmas -> Schedule.t
(** Run the three rounds with odd–even transposition on each line, each
    line from the shallower starting parity
    ({!Path_route.min_parity}).  The result realizes [π] exactly
    (asserted internally).  [emit (plan_rounds (Column_graph.build grid pi)
    sigmas)].
    @raise Invalid_argument when {!check_sigmas} fails. *)

type rounds
(** The three rounds of one instance, planned but not yet written out:
    every line's destinations and starting parity, and the swap count of
    every merged layer.  Planning counts odd–even rounds without recording
    a swap, so the depth is known before any layer is built. *)

val plan_rounds : Column_graph.t -> sigmas -> rounds
(** Plan the rounds of the column graph's instance, checking that every
    token reaches its destination.
    @raise Invalid_argument when the sigmas fail {!check_sigmas}. *)

val depth : rounds -> int
(** Depth of the schedule {!emit} would write. *)

val emit : ?transposed:bool -> rounds -> Schedule.t
(** Write the planned schedule: every swap's two endpoints into one
    exactly sized int array, layer by layer ({!Schedule.of_flat}).
    With [~transposed:true] the rounds were planned on the transposed
    instance ({!Column_graph.build_transposed}) and vertex ids are lifted
    back to the original grid as each swap is written, as
    [Schedule.map_vertices (Grid_perm.untranspose_vertex grid)] would. *)

val round_depths :
  Qr_graph.Grid.t -> Qr_perm.Perm.t -> sigmas -> int * int * int
(** Depth of each of the three rounds separately (columns, rows, columns) —
    the breakdown that shows where a sigma family spends its budget: a
    locality-aware choice empties rounds 1 and 3 on row-local
    permutations. *)
