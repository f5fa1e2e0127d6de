(** Umbrella API: one import for the whole routing stack.

    Re-exports lib's modules under stable names and adds routing entry
    points that name their engine by {!Router_registry} key. *)

(** {2 Re-exports} *)

module Rng = Qr_util.Rng
module Stats = Qr_util.Stats
module Timer = Qr_util.Timer
module Resource = Qr_util.Resource
module Trace = Qr_obs.Trace
module Trace_context = Qr_obs.Trace_context
module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Obs_json = Qr_obs.Json
module Fault = Qr_fault.Fault
module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Product = Qr_graph.Product
module Bfs = Qr_graph.Bfs
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Grid_perm = Qr_perm.Grid_perm
module Generators = Qr_perm.Generators
module Partial_perm = Qr_perm.Partial_perm
module Perm_stats = Qr_perm.Perm_stats
module Hopcroft_karp = Qr_bipartite.Hopcroft_karp
module Bottleneck = Qr_bipartite.Bottleneck
module Assignment = Qr_bipartite.Assignment
module Schedule = Qr_route.Schedule
module Router_intf = Qr_route.Router_intf
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry
module Path_route = Qr_route.Path_route
module Column_graph = Qr_route.Column_graph
module Grid_route = Qr_route.Grid_route
module Local_grid_route = Qr_route.Local_grid_route
module Product_route = Qr_route.Product_route
module Bounds = Qr_route.Bounds
module Viz = Qr_route.Viz
module Token_swap = Qr_token.Token_swap
module Token_engines = Qr_token.Engines
module Parallel_ats = Qr_token.Parallel_ats
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Qasm = Qr_circuit.Qasm
module Layout = Qr_circuit.Layout
module Transpile = Qr_circuit.Transpile
module Library = Qr_circuit.Library
module Server = Qr_server.Server
module Server_session = Qr_server.Session
module Server_protocol = Qr_server.Protocol
module Server_client = Qr_server.Client
module Plan_cache = Qr_server.Plan_cache
module Io_util = Qr_server.Io_util
module Worker_pool = Qr_server.Worker_pool
module Cancel = Qr_util.Cancel
module Breaker = Qr_route.Breaker
module Supervisor = Qr_server.Supervisor

(** {2 Routing}

    Linking this module completes the {!Router_registry}: the grid engines
    register with [qr_route] itself, and the umbrella's initializer adds
    the token-swapping engines.  [?engine] is a registry key, default
    ["best"], the same default as the wire's [engine] field:
    - ["local"]: Algorithm 1, LocalGridRoute over both orientations;
    - ["local1"]: Algorithm 2 only (no transpose trick);
    - ["naive"]: Alon et al.'s GridRoute, arbitrary decomposition and
      row assignment ([local1] with [discovery=whole,assignment=arbitrary];
      it ignores the configuration's discovery, assignment and
      transpose);
    - ["ats"] / ["ats-serial"]: parallel / serial approximate token
      swapping, which also route arbitrary graphs
      ({!Router_registry.route_generic});
    - ["snake"]: the 1-D boustrophedon odd–even baseline;
    - ["best"]: the shallower of [local] and [naive], the paper's
      "no-overhead" combination.

    Every entry point raises [Invalid_argument] for an unregistered
    name. *)

val route :
  ?engine:string -> ?config:Router_config.t ->
  Grid.t -> Perm.t -> Schedule.t
(** Route a permutation on a grid.  Every engine returns a valid schedule
    realizing the permutation. *)

val route_partial :
  ?engine:string ->
  ?config:Router_config.t ->
  ?policy:Partial_perm.policy ->
  Grid.t -> Partial_perm.t -> Schedule.t * Perm.t
(** Route a partial permutation (§II's don't-care case): extend it to a
    full permutation (default policy: minimum-total-Manhattan-displacement
    assignment of the don't-cares) and route that.  Returns the schedule
    and the chosen extension. *)

val transpile :
  ?engine:string ->
  ?config:Router_config.t ->
  ?initial:Layout.t ->
  Grid.t -> Circuit.t -> Transpile.result
(** Transpile a logical circuit onto the grid, routing with [engine]. *)
