module Grid = Qr_graph.Grid
module Distance = Qr_graph.Distance
module Router_intf = Qr_route.Router_intf
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry

let graph_of_input = function
  | Router_intf.Grid_input (grid, pi) ->
      (Grid.graph grid, Distance.of_grid grid, pi)
  | Router_intf.Graph_input (graph, dist, pi) -> (graph, dist, pi)

let generic_caps =
  {
    Router_intf.grid_only = false;
    supports_transpose = false;
    supports_partial = true;
  }

let ats =
  {
    Router_intf.name = "ats";
    capabilities = generic_caps;
    route =
      (fun _ws config input ->
        let graph, dist, pi = graph_of_input input in
        Parallel_ats.route ~trials:config.Router_config.ats_trials
          ~seed:config.Router_config.seed graph dist pi);
  }

(* [trials] deliberately stays at [Token_swap.schedule]'s own default: the
   [trials] knob parameterizes the parallel engine's restart race, while
   the serial ablation is the single deterministic run the paper
   compares against. *)
let ats_serial =
  {
    Router_intf.name = "ats-serial";
    capabilities = generic_caps;
    route =
      (fun _ws config input ->
        let graph, dist, pi = graph_of_input input in
        Token_swap.schedule ~seed:config.Router_config.seed graph dist pi);
  }

(* Compare-and-set so concurrent [register] calls race safely: exactly
   one caller performs the (init-time, single-threaded by convention —
   see Router_registry's .mli) registration.  The engines themselves
   hold no shared mutable state: every route call works out of
   call-local structures, so they are domain-safe once registered. *)
let registered = Atomic.make false

let register () =
  if Atomic.compare_and_set registered false true then begin
    Router_registry.register ats;
    Router_registry.register ats_serial
  end
