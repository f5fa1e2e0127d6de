module Grid = Qr_graph.Grid
module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type input =
  | Grid_input of Grid.t * Perm.t
  | Graph_input of Graph.t * Distance.t * Perm.t

type capabilities = {
  grid_only : bool;
  supports_transpose : bool;
  supports_partial : bool;
}

type t = {
  name : string;
  capabilities : capabilities;
  route : Router_workspace.t option -> Router_config.t -> input -> Schedule.t;
}

exception Unsupported_input of { engine : string; reason : string }

let unsupported ~engine ~reason = raise (Unsupported_input { engine; reason })

let () =
  Printexc.register_printer (function
    | Unsupported_input { engine; reason } ->
        Some
          (Printf.sprintf "Router_intf.Unsupported_input(engine %S: %s)"
             engine reason)
    | _ -> None)

let input_size = function
  | Grid_input (grid, _) -> Grid.size grid
  | Graph_input (graph, _, _) -> Graph.num_vertices graph

let input_perm = function
  | Grid_input (_, pi) -> pi
  | Graph_input (_, _, pi) -> pi

let require_grid ~engine = function
  | Grid_input (grid, pi) -> (grid, pi)
  | Graph_input _ ->
      unsupported ~engine
        ~reason:"grid-only engine given a generic graph input"

(* Route + the compaction post-pass, with no span or counters — the
   internal path engines (like [best]) use to race contenders without
   inflating the public per-call metrics. *)
let run ?ws engine config input =
  let sched = engine.route ws config input in
  if config.Router_config.compaction then
    Schedule.compact ~n:(input_size input) sched
  else sched

(* Schedule-quality counters, recorded once per top-level routing call from
   the schedule actually returned — so [swap_layers] always equals the
   emitted [Schedule.depth] even for engines that race others internally. *)
let c_route_calls = Metrics.counter "route_calls"
let c_swap_layers = Metrics.counter "swap_layers"
let c_swaps_total = Metrics.counter "swaps_total"

let route ?ws ?(config = Router_config.default) engine input =
  Trace.with_span "route"
    ~attrs:[ ("strategy", Trace.String engine.name) ]
  @@ fun () ->
  if Trace.enabled () then
    List.iter (fun (k, v) -> Trace.add_attr k v) (Router_config.to_attrs config);
  (* Make the request's cancellation token ambient for the planning hot
     loops.  The workspace token wins when attached (the serving layer
     sets it per request); otherwise whatever token is already ambient
     on this domain stays in force. *)
  let token = Router_workspace.cancel ws in
  let sched =
    if token == Cancel.none then run ?ws engine config input
    else Cancel.with_ambient token (fun () -> run ?ws engine config input)
  in
  if Metrics.enabled () then begin
    Metrics.incr c_route_calls;
    Metrics.add c_swap_layers (Schedule.depth sched);
    Metrics.add c_swaps_total (Schedule.size sched)
  end;
  sched

let route_grid ?ws ?config engine grid pi =
  route ?ws ?config engine (Grid_input (grid, pi))

let route_many ?(config = Router_config.default) engine inputs =
  match inputs with
  | [] -> []
  | inputs ->
      let ws = Router_workspace.create () in
      List.map (fun input -> route ~ws ~config engine input) inputs
