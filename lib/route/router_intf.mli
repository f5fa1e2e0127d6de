(** First-class routing engines.

    An {e engine} is a value: a name, a capability set, and one [route]
    function from a configuration and an input to a schedule.

    Engines are registered and enumerated by {!Router_registry}; the
    observable entry point is {!route}, which wraps the call in the [route]
    span and records the schedule-quality counters ([route_calls],
    [swap_layers], [swaps_total]) exactly once per call — engines that race
    other engines internally go through the uncounted {!run}. *)

type input =
  | Grid_input of Qr_graph.Grid.t * Qr_perm.Perm.t
  | Graph_input of Qr_graph.Graph.t * Qr_graph.Distance.t * Qr_perm.Perm.t
      (** Arbitrary connected coupling graph with a distance oracle. *)

type capabilities = {
  grid_only : bool;
      (** The engine rejects {!Graph_input} ({!Unsupported_input});
          {!Router_registry.route_generic} falls back explicitly. *)
  supports_transpose : bool;
      (** The engine reads {!Router_config.t}[.transpose] (Algorithm 1's
          orientation race). *)
  supports_partial : bool;
      (** The engine is safe under the extend-then-route pipeline of
          partial permutations (all current engines are; a future
          native-don't-care engine would plan differently). *)
}

type t = {
  name : string;  (** Registry key; lowercase, stable across releases. *)
  capabilities : capabilities;
  route : Router_workspace.t option -> Router_config.t -> input -> Schedule.t;
      (** The engine itself, with no span, counters or compaction; callers
          go through {!route} or {!run}. *)
}

exception Unsupported_input of { engine : string; reason : string }
(** Raised by an engine's [route] when the input shape is outside its
    capabilities (e.g. a grid-only engine on {!Graph_input}). *)

val unsupported : engine:string -> reason:string -> 'a

val input_size : input -> int
(** Number of vertices of the underlying device. *)

val input_perm : input -> Qr_perm.Perm.t

val require_grid : engine:string -> input -> Qr_graph.Grid.t * Qr_perm.Perm.t
(** Destructure a grid input or raise {!Unsupported_input} — the standard
    first line of a grid-only engine's [route]. *)

val run : ?ws:Router_workspace.t -> t -> Router_config.t -> input -> Schedule.t
(** Route and apply the configured compaction post-pass, with no span and
    no counters.  Internal composition seam (the [best] engine races
    contenders through this). *)

val route :
  ?ws:Router_workspace.t -> ?config:Router_config.t -> t -> input -> Schedule.t
(** The observable routing call: {!run} wrapped in the [route] span
    (engine name and configuration as attributes) with the
    [route_calls]/[swap_layers]/[swaps_total] counters recorded from the
    returned schedule.  Every engine returns a valid schedule realizing the
    input permutation.  @raise Unsupported_input outside the engine's
    capabilities. *)

val route_grid :
  ?ws:Router_workspace.t ->
  ?config:Router_config.t ->
  t -> Qr_graph.Grid.t -> Qr_perm.Perm.t -> Schedule.t
(** {!route} on a {!Grid_input}. *)

val route_many : ?config:Router_config.t -> t -> input list -> Schedule.t list
(** Route a batch through one shared {!Router_workspace}, amortizing the
    planning allocations.  Schedules are bit-identical to routing each
    input with a separate {!route} call.  An empty batch returns [[]]
    without allocating a workspace. *)
