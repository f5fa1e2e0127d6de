(** Initial qubit placement (the {e mapping} half of the paper's
    mapping/routing alternation, §II).

    A good starting layout puts frequently-interacting logical qubits on
    nearby physical vertices so that the router has less to do.  The
    heuristic here is the standard greedy interaction-graph embedding:

    + weight every logical pair by how often it interacts (optionally
      discounting later gates, which the router can fix up anyway);
    + seed with the heaviest-interacting qubit on the device's most central
      vertex;
    + repeatedly place the unplaced qubit with the strongest attachment to
      the placed set on the free vertex minimizing the weighted sum of
      distances to its placed partners.

    This is a heuristic, not an optimum (optimal placement is NP-hard);
    tests assert only well-formedness and that it does not lose to the
    identity layout on strongly structured circuits. *)

val interaction_weights :
  ?decay:float -> Qr_circuit.Circuit.t -> (int * int * float) list
(** Weighted interaction pairs [(q1, q2, w)], [q1 < q2], one entry per
    interacting pair.  [decay] < 1 discounts gate [k] by [decay^layer]
    (default [1.], no discount). *)

val place :
  ?decay:float ->
  graph:Qr_graph.Graph.t ->
  dist:Qr_graph.Distance.t ->
  Qr_circuit.Circuit.t ->
  Qr_circuit.Layout.t
(** Greedy placement of the circuit's qubits on the device.  The circuit
    and device must have the same size; qubits with no interactions fill
    the remaining vertices in index order. *)

val anneal :
  ?iterations:int ->
  ?temperature:float ->
  rng:Qr_util.Rng.t ->
  dist:Qr_graph.Distance.t ->
  Qr_circuit.Circuit.t ->
  Qr_circuit.Layout.t ->
  Qr_circuit.Layout.t
(** Simulated-annealing refinement of a layout: random pairwise exchanges
    of physical slots, accepted when they lower {!placement_cost} (or with
    Boltzmann probability otherwise), geometric cooling over [iterations]
    (default [2000·n]) from [temperature] (default the initial cost / 10).
    Returns the best layout seen; never worse than the input. *)

val placement_cost :
  dist:Qr_graph.Distance.t -> Qr_circuit.Circuit.t -> Qr_circuit.Layout.t ->
  float
(** [Σ_pairs w · d(phys q1, phys q2)] — the objective the heuristic
    descends; exposed for evaluation and tests. *)
