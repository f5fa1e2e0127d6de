(** Dense statevector simulation for correctness checking.

    Exact simulation of the gate set of {!Qr_circuit.Gate} on up to ~12
    qubits (the state has [2^n] amplitudes).  Qubit [q] is bit [q] of the
    basis index (little-endian).  This is the ground truth the integration
    tests use: a transpiled circuit must act identically to the logical
    circuit once its input/output layouts are accounted for. *)

type t
(** A normalized (unless constructed otherwise) complex state. *)

val num_qubits : t -> int

val dim : t -> int
(** [2^num_qubits]. *)

val zero_state : int -> t
(** |0…0⟩ on [n] qubits.  @raise Invalid_argument if [n < 0] or [n > 20]. *)

val basis_state : int -> int -> t
(** [basis_state n k] is |k⟩. *)

val random_state : Qr_util.Rng.t -> int -> t
(** Haar-ish random state: i.i.d. Gaussian amplitudes, normalized. *)

val copy : t -> t

val amplitude : t -> int -> float * float
(** Real and imaginary part of an amplitude. *)

val norm : t -> float

val run : Qr_circuit.Circuit.t -> t -> t
(** Apply every gate to a copy of the state. *)

val run_from_zero : Qr_circuit.Circuit.t -> t

val permute_qubits : t -> int array -> t
(** [permute_qubits s p]: the state in which qubit [q] of [s] is relabeled
    as qubit [p.(q)] — i.e. the new amplitude at index [j] equals the old
    amplitude at the index whose bit [q] is bit [p.(q)] of [j].
    @raise Invalid_argument unless [p] is a permutation of the qubits. *)

val fidelity : t -> t -> float
(** |⟨a|b⟩|² — 1.0 for equal states regardless of global phase. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** [fidelity ≥ 1 − tol] (default [1e-9]). *)

val measure_probabilities : t -> float array
(** |amplitude|² per basis state. *)

val sample : Qr_util.Rng.t -> t -> int
(** Draw one measurement outcome (a basis index) per the Born rule. *)

val sample_counts : Qr_util.Rng.t -> t -> shots:int -> (int * int) list
(** [shots] independent samples, aggregated as [(basis_index, count)]
    pairs sorted by index. *)
