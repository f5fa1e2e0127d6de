(** A SABRE-style swap-insertion transpiler (Li–Ding–Xie, ASPLOS 2019 —
    reference [6] of the paper), as a circuit-level baseline for the
    slice-based {!Qr_circuit.Transpile}.

    Instead of routing whole permutations between slices, SABRE walks the
    dependency DAG gate by gate: executable front-layer gates are emitted;
    when everything in the front is blocked, one SWAP is inserted — the
    candidate (an edge touching a front gate's operand) minimizing a
    heuristic score, the summed distances of the front-layer pairs plus a
    discounted term for a lookahead window of upcoming gates.  A decay
    penalty on recently-swapped qubits breaks oscillations.

    This implementation is deliberately compact ("lite"): single forward
    pass, no reverse-pass layout search.  It is exact on correctness (same
    verification story as {!Qr_circuit.Transpile}) and serves as the
    state-of-the-practice comparator in the circuit benchmarks. *)

type config = {
  lookahead : int;  (** Upcoming 2-qubit gates scored beyond the front (default 20). *)
  lookahead_weight : float;  (** Their weight vs the front (default 0.5). *)
  decay : float;  (** Per-use penalty on a qubit's swap score (default 0.001). *)
  decay_reset : int;  (** Emitted-gate period after which decays reset (default 5). *)
}

val default_config : config

val run :
  ?config:config ->
  ?initial:Qr_circuit.Layout.t ->
  graph:Qr_graph.Graph.t ->
  dist:Qr_graph.Distance.t ->
  Qr_circuit.Circuit.t ->
  Qr_circuit.Transpile.result
(** Transpile with SABRE-style swap insertion.  Same contract as
    {!Qr_circuit.Transpile.run}: every logical gate appears exactly once,
    only SWAPs are added, the result is feasible, and the final layout is
    reported.
    @raise Invalid_argument on size mismatch. *)

val run_grid :
  ?config:config ->
  ?initial:Qr_circuit.Layout.t ->
  ?unwind:Qr_route.Router_intf.t ->
  ?unwind_config:Qr_route.Router_config.t ->
  Qr_graph.Grid.t -> Qr_circuit.Circuit.t ->
  Qr_circuit.Transpile.result
(** Grid convenience.  With [unwind], the final layout is routed back to
    the initial one by the given engine
    ({!Qr_circuit.Layout.routing_target}) and the SWAP layers are appended
    — the output then composes with circuits expecting the starting
    layout; [result.final] equals [result.initial] and [swap_layers]
    includes the unwinding depth. *)
