(** A coarse NISQ error model: why depth and size matter.

    The paper's motivation (§I) is that routing inflation makes the output
    state "deviate significantly" on NISQ hardware.  This model turns a
    circuit into an estimated success probability using three standard
    ingredients: a depolarizing error per one-qubit gate, one per two-qubit
    gate, and an idle-decoherence term charged per qubit per layer
    (T1/T2-style, parameterized as a per-layer idle error).  Swaps can be
    costed natively or as 3 CX.

    The numbers are {e estimates} (independent-error approximation:
    log-fidelities add); their value is comparative — ranking transpilation
    results — not absolute. *)

type model = {
  one_qubit_error : float;  (** e.g. 1e-4 *)
  two_qubit_error : float;  (** e.g. 1e-2 *)
  idle_error_per_layer : float;  (** per qubit per layer, e.g. 1e-3 *)
  native_swap : bool;
      (** [true]: a SWAP is one two-qubit gate; [false]: it costs 3 CX. *)
}

val default : model
(** Superconducting-flavoured defaults: 1e-4 / 1e-2 / 1e-3, no native
    SWAP. *)

val log_success : model -> Qr_circuit.Circuit.t -> float
(** Sum of [log (1 - error)] over all gates plus idle terms: the log of the
    estimated probability that no error occurred. *)

val success_probability : model -> Qr_circuit.Circuit.t -> float
(** [exp (log_success model circuit)], clamped to [0, 1]. *)

val gate_counts : Qr_circuit.Circuit.t -> int * int
(** [(one_qubit, two_qubit)] gate counts after SWAP costing is {e not}
    applied (raw circuit). *)
