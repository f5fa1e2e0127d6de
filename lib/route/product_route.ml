module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Product = Qr_graph.Product
module Bfs = Qr_graph.Bfs
module Perm = Qr_perm.Perm
module Bottleneck = Qr_bipartite.Bottleneck

type factor_router = Graph.t -> Perm.t -> Schedule.t

(* The product flattens (u, v) to u * |V2| + v exactly as the |V1|x|V2|
   grid flattens (row, col) ({!Product.of_grid}), so that grid's column
   multigraph is the product's: its sides are G2-vertices and its row
   labels G1-vertices. *)
let column_graph product pi =
  let rows = Graph.num_vertices (Product.left product) in
  let cols = Graph.num_vertices (Product.right product) in
  Column_graph.build (Grid.make ~rows ~cols) pi

(* MCBBM over the grid's Δ with |i - r| generalized to d_{G1}(i, r). *)
let assign_mcbbm cg g1 matchings =
  let dist = Bfs.all_pairs g1 in
  let delta matching r =
    Array.fold_left
      (fun acc x ->
        acc
        + dist.(Column_graph.src_row cg x).(r)
        + dist.(Column_graph.dst_row cg x).(r))
      0 matching
  in
  let weights =
    Array.of_list
      (List.map
         (fun matching -> Array.init (Column_graph.rows cg) (delta matching))
         matchings)
  in
  (Bottleneck.solve_complete ~weights).left_match

let merge_copies lines ~lift =
  let lines = List.map (fun (copy, sched) -> (copy, Schedule.layers sched)) lines in
  let rec peel lines acc =
    let layer = ref [] in
    let rest =
      List.filter_map
        (fun (copy, layers) ->
          match layers with
          | [] -> None
          | first :: tail ->
              Array.iter
                (fun (a, b) -> layer := (lift copy a, lift copy b) :: !layer)
                first;
              if tail = [] then None else Some (copy, tail))
        lines
    in
    if !layer = [] then Schedule.of_layers (List.rev acc)
    else peel rest (Array.of_list !layer :: acc)
  in
  peel lines []

let apply_layers token_at sched =
  Schedule.iter
    (fun u v ->
      let tmp = token_at.(u) in
      token_at.(u) <- token_at.(v);
      token_at.(v) <- tmp)
    sched

let route ?(locality = true) ~route1 ~route2 product pi =
  let g1 = Product.left product and g2 = Product.right product in
  let n1 = Graph.num_vertices g1 and n2 = Graph.num_vertices g2 in
  let cg = column_graph product pi in
  let matchings =
    Local_grid_route.discover_matchings
      (if locality then Local_grid_route.Doubling else Local_grid_route.Whole)
      cg
  in
  let assigned_rows =
    if locality then assign_mcbbm cg g1 matchings
    else Array.init n1 (fun k -> k)
  in
  (* sigmas.(v).(u): the G1-destination of the qubit starting at (u, v) in
     round 1. *)
  let sigmas = Grid_route.sigmas_of_assignment cg ~matchings ~assigned_rows in
  let token_at = Array.init (n1 * n2) (fun x -> x) in
  (* Round 1: inside each copy of G1 (fixed G2-vertex v). *)
  let round1 =
    let lines =
      List.init n2 (fun v ->
          (v, route1 g1 (Perm.check (Array.copy sigmas.(v)))))
    in
    merge_copies lines ~lift:(fun v u -> Product.index product u v)
  in
  apply_layers token_at round1;
  (* Round 2: inside each copy of G2 (fixed G1-vertex u). *)
  let round2 =
    let lines =
      List.init n1 (fun u ->
          let dests =
            Array.init n2 (fun v ->
                Column_graph.dst_col cg token_at.(Product.index product u v))
          in
          (u, route2 g2 (Perm.check dests)))
    in
    merge_copies lines ~lift:(fun u v -> Product.index product u v)
  in
  apply_layers token_at round2;
  (* Round 3: inside each copy of G1 again. *)
  let round3 =
    let lines =
      List.init n2 (fun v ->
          let dests =
            Array.init n1 (fun u ->
                let x = token_at.(Product.index product u v) in
                assert (Column_graph.dst_col cg x = v);
                Column_graph.dst_row cg x)
          in
          (v, route1 g1 (Perm.check dests)))
    in
    merge_copies lines ~lift:(fun v u -> Product.index product u v)
  in
  apply_layers token_at round3;
  Array.iteri (fun x dst -> assert (token_at.(dst) = x)) pi;
  Schedule.concat round1 (Schedule.concat round2 round3)

let route_best_orientation ?locality ~route1 ~route2 product pi =
  let direct = route ?locality ~route1 ~route2 product pi in
  let mirrored = Product.transpose product in
  let total = Product.size product in
  let pi_t = Array.make total 0 in
  for x = 0 to total - 1 do
    pi_t.(Product.transpose_vertex product x) <- Product.transpose_vertex product pi.(x)
  done;
  let swapped =
    route ?locality ~route1:route2 ~route2:route1 mirrored (Perm.check pi_t)
  in
  let lifted =
    Schedule.map_vertices (Product.transpose_vertex mirrored) swapped
  in
  if Schedule.depth lifted < Schedule.depth direct then lifted else direct
