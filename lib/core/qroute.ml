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
module Topology = Qr_graph.Topology
module Perm = Qr_perm.Perm
module Grid_perm = Qr_perm.Grid_perm
module Generators = Qr_perm.Generators
module Partial_perm = Qr_perm.Partial_perm
module Perm_stats = Qr_perm.Perm_stats
module Hopcroft_karp = Qr_bipartite.Hopcroft_karp
module Decompose = Qr_bipartite.Decompose
module Bottleneck = Qr_bipartite.Bottleneck
module Assignment = Qr_bipartite.Assignment
module Schedule = Qr_route.Schedule
module Router_intf = Qr_route.Router_intf
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry
module Router_workspace = Qr_route.Router_workspace
module Path_route = Qr_route.Path_route
module Column_graph = Qr_route.Column_graph
module Grid_route = Qr_route.Grid_route
module Local_grid_route = Qr_route.Local_grid_route
module Product_route = Qr_route.Product_route
module Line_route = Qr_route.Line_route
module Bounds = Qr_route.Bounds
module Viz = Qr_route.Viz
module Token_swap = Qr_token.Token_swap
module Token_engines = Qr_token.Engines
module Parallel_ats = Qr_token.Parallel_ats
module Exact = Qr_token.Exact
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Qasm = Qr_circuit.Qasm
module Layout = Qr_circuit.Layout
module Transpile = Qr_circuit.Transpile
module Library = Qr_circuit.Library
module Noise = Qr_circuit.Noise
module Placement = Qr_circuit.Placement
module Optimize = Qr_circuit.Optimize
module Sabre_lite = Qr_circuit.Sabre_lite
module Statevector = Qr_sim.Statevector
module Unitary = Qr_sim.Unitary
module Permsim = Qr_sim.Permsim
module Server = Qr_server.Server
module Server_session = Qr_server.Session
module Server_protocol = Qr_server.Protocol
module Server_client = Qr_server.Client
module Plan_cache = Qr_server.Plan_cache
module Deadline = Qr_server.Deadline
module Io_util = Qr_server.Io_util
module Worker_pool = Qr_server.Worker_pool
module Cancel = Qr_util.Cancel
module Breaker = Qr_route.Breaker
module Supervisor = Qr_server.Supervisor

(* Linking the umbrella completes the registry: the grid engines register
   when [Router_registry]'s own initializer runs, the token-swapping ones
   here. *)
let () = Token_engines.register ()

let route ?(engine = "best") ?config grid pi =
  Router_intf.route_grid ?config (Router_registry.get engine) grid pi

let route_many ?(engine = "best") ?config grid pis =
  Router_intf.route_many ?config (Router_registry.get engine)
    (List.map (fun pi -> Router_intf.Grid_input (grid, pi)) pis)

let route_partial ?engine ?config ?policy grid partial =
  let policy =
    match policy with
    | Some p -> p
    | None -> Partial_perm.Min_total (fun u v -> Grid.manhattan grid u v)
  in
  let pi = Partial_perm.extend policy partial in
  (route ?engine ?config grid pi, pi)

let transpile ?(engine = "best") ?config ?initial ?(place = false)
    grid circuit =
  let initial =
    match initial with
    | Some _ -> initial
    | None when place ->
        Some
          (Placement.place ~graph:(Grid.graph grid)
             ~dist:(Distance.of_grid grid) circuit)
    | None -> None
  in
  Transpile.run_grid ?initial ~engine:(Router_registry.get engine) ?config
    grid circuit
