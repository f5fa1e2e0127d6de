(** Slice-based transpilation: the mapping/routing alternation of §II.

    The logical circuit is cut into ASAP slices of two-qubit gates.  For
    each slice, gates already feasible under the current layout execute
    immediately; for the rest, a {e mapping} step picks adjacent meeting
    positions for every blocked pair (midpoint of a shortest path, greedily
    deconflicted), the partial target is extended to a full permutation
    (idle qubits stay put when possible, displaced ones move as little as
    possible), and a {e routing} step — any router with the
    {!router} signature, e.g. the paper's LocalGridRoute — realizes it with
    SWAP layers.  A slice may take several mapping/routing passes when
    meeting positions collide; each pass makes at least one blocked gate
    feasible, so termination is guaranteed.

    Single-qubit gates ride along at their qubit's current position.  The
    output records the final layout so results can be interpreted (or
    verified against a simulator). *)

type router = Qr_perm.Perm.t -> Qr_route.Schedule.t
(** Realizes a physical-vertex permutation on the device. *)

type extension =
  | Nearest  (** Greedy nearest-free-slot completion (default; O(k² log k)). *)
  | Min_total
      (** Hungarian minimum-total-displacement completion of the don't-care
          qubits (O(k³)); typically saves a few swaps per routed slice on
          large devices. *)

type result = {
  physical : Circuit.t;  (** Feasible circuit on physical vertices. *)
  initial : Layout.t;  (** The layout the run started from. *)
  final : Layout.t;  (** Where each logical qubit ends up. *)
  routed_slices : int;  (** Slices that needed at least one routing pass. *)
  swap_layers : int;  (** Total routing layers inserted. *)
}

val run :
  ?initial:Layout.t ->
  ?on_route:(Qr_perm.Perm.t -> Qr_route.Schedule.t -> unit) ->
  ?extension:extension ->
  graph:Qr_graph.Graph.t ->
  dist:Qr_graph.Distance.t ->
  router:router ->
  Circuit.t ->
  result
(** Transpile for an arbitrary coupling graph.  [on_route] observes every
    (permutation, schedule) pair the router is asked to realize — the
    harvesting hook behind the benchmark's realistic workload mode.  The circuit must have
    exactly as many qubits as the graph has vertices (pad with idle qubits
    otherwise).  @raise Invalid_argument on size mismatch. *)

val run_grid :
  ?initial:Layout.t ->
  ?on_route:(Qr_perm.Perm.t -> Qr_route.Schedule.t -> unit) ->
  ?extension:extension ->
  ?engine:Qr_route.Router_intf.t ->
  ?config:Qr_route.Router_config.t ->
  Qr_graph.Grid.t ->
  Circuit.t ->
  result
(** Grid convenience: route every slice with a registered engine (default
    ["local"], the paper's LocalGridRoute with the transpose race). *)

val verify_feasible : Qr_graph.Graph.t -> result -> bool
(** The physical circuit respects the coupling graph. *)
