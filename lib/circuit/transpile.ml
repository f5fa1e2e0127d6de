module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Bfs = Qr_graph.Bfs
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Partial_perm = Qr_perm.Partial_perm
module Schedule = Qr_route.Schedule
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics

type router = Perm.t -> Schedule.t

let c_router_calls = Metrics.counter "router_calls"
let c_routed_slices = Metrics.counter "routed_slices"
let c_transpile_swap_layers = Metrics.counter "transpile_swap_layers"

type extension = Nearest | Min_total

type result = {
  physical : Circuit.t;
  initial : Layout.t;
  final : Layout.t;
  routed_slices : int;
  swap_layers : int;
}

(* Pick adjacent meeting positions for a blocked pair: consecutive vertices
   of a shortest path, tried outwards from the midpoint, skipping slots
   already claimed by other gates of the pass.  The first blocked gate of a
   pass always succeeds (nothing is claimed yet), which guarantees per-pass
   progress. *)
let meeting_slots path claimed =
  let arr = Array.of_list path in
  let len = Array.length arr in
  let mid = (len - 2) / 2 in
  let try_order =
    List.init (len - 1) (fun k ->
        let offset = ((k + 1) / 2) * if k mod 2 = 0 then 1 else -1 in
        mid + offset)
    |> List.filter (fun i -> i >= 0 && i + 1 < len)
  in
  List.find_opt
    (fun i -> (not claimed.(arr.(i))) && not claimed.(arr.(i + 1)))
    try_order
  |> Option.map (fun i -> (arr.(i), arr.(i + 1)))

let run ?initial ?on_route ?(extension = Nearest) ~graph ~dist ~router circuit =
  Trace.with_span "transpile" @@ fun () ->
  let n = Graph.num_vertices graph in
  if Circuit.num_qubits circuit <> n then
    invalid_arg "Transpile.run: circuit and device sizes differ";
  let layout = ref (match initial with Some l -> l | None -> Layout.identity n) in
  let started_from = !layout in
  let out = ref [] in
  let swap_layers = ref 0 in
  let routed_slices = ref 0 in
  let emit gate = out := Gate.map_qubits (fun q -> Layout.phys !layout q) gate :: !out in
  let emit_schedule sched =
    Schedule.iter (fun u v -> out := Gate.Two (Gate.SWAP, u, v) :: !out) sched;
    swap_layers := !swap_layers + Schedule.depth sched;
    layout := Layout.apply_schedule !layout sched
  in
  let feasible gate =
    match Gate.qubits gate with
    | [ a; b ] -> Graph.mem_edge graph (Layout.phys !layout a) (Layout.phys !layout b)
    | _ -> true
  in
  let route_for_blocked blocked =
    let claimed = Array.make n false in
    let targets = ref [] in
    let still_blocked = ref [] in
    List.iter
      (fun gate ->
        match Gate.qubits gate with
        | [ a; b ] -> (
            let pa = Layout.phys !layout a and pb = Layout.phys !layout b in
            let path = Bfs.shortest_path graph pa pb in
            match meeting_slots path claimed with
            | Some (ma, mb) ->
                claimed.(ma) <- true;
                claimed.(mb) <- true;
                (* Sources may coincide with other gates' targets; that is
                   fine — a partial bijection needs injectivity per side
                   only. *)
                targets := (pa, ma) :: (pb, mb) :: !targets;
                still_blocked := gate :: !still_blocked
            | None -> still_blocked := gate :: !still_blocked)
        | _ -> assert false)
      blocked;
    let metric u v = Distance.dist dist u v in
    let policy =
      match extension with
      | Nearest -> Partial_perm.Greedy_nearest metric
      | Min_total -> Partial_perm.Min_total metric
    in
    let rho =
      Partial_perm.extend policy (Partial_perm.make ~n (List.rev !targets))
    in
    Metrics.incr c_router_calls;
    let sched = Trace.with_span "transpile_route" (fun () -> router rho) in
    assert (Schedule.is_valid graph sched);
    assert (Schedule.realizes ~n sched rho);
    (match on_route with Some f -> f rho sched | None -> ());
    emit_schedule sched;
    List.rev !still_blocked
  in
  List.iter
    (fun layer ->
      let ones, twos = List.partition (fun g -> not (Gate.is_two_qubit g)) layer in
      List.iter emit ones;
      let pending = ref twos in
      let routed_here = ref false in
      while !pending <> [] do
        let ready, blocked = List.partition feasible !pending in
        List.iter emit ready;
        if blocked = [] then pending := []
        else begin
          routed_here := true;
          pending := route_for_blocked blocked
        end
      done;
      if !routed_here then incr routed_slices)
    (Circuit.layers circuit);
  Metrics.add c_routed_slices !routed_slices;
  Metrics.add c_transpile_swap_layers !swap_layers;
  {
    physical = Circuit.create ~num_qubits:n (List.rev !out);
    initial = started_from;
    final = !layout;
    routed_slices = !routed_slices;
    swap_layers = !swap_layers;
  }

let run_grid ?initial ?on_route ?extension ?engine ?config grid circuit =
  let engine =
    match engine with
    | Some e -> e
    | None -> Qr_route.Router_registry.get "local"
  in
  let router rho = Qr_route.Router_intf.route_grid ?config engine grid rho in
  run ?initial ?on_route ?extension ~graph:(Grid.graph grid)
    ~dist:(Distance.of_grid grid) ~router circuit

let verify_feasible graph result = Circuit.is_feasible graph result.physical
