module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid

type heavy_hex = {
  graph : Graph.t;
  data_rows : int;
  row_length : int;
  bridges : (int * int * int) list;
}

let heavy_hex ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Topology.heavy_hex: dimensions must be positive";
  let row_index r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 2 do
      edges := (row_index r c, row_index r (c + 1)) :: !edges
    done
  done;
  let bridges = ref [] in
  let next_bridge = ref (rows * cols) in
  for r = 0 to rows - 2 do
    (* Bridge columns every 4 positions, offset alternating 0/2 like the
       IBM lattice; always at least one bridge so the graph is connected. *)
    let offset = if r mod 2 = 0 then 0 else 2 mod cols in
    let columns = ref [] in
    let c = ref offset in
    while !c < cols do
      columns := !c :: !columns;
      c := !c + 4
    done;
    if !columns = [] then columns := [ 0 ];
    List.iter
      (fun c ->
        let bridge = !next_bridge in
        incr next_bridge;
        let upper = row_index r c and lower = row_index (r + 1) c in
        edges := (bridge, upper) :: (bridge, lower) :: !edges;
        bridges := (bridge, upper, lower) :: !bridges)
      !columns
  done;
  {
    graph = Graph.of_edges ~n:!next_bridge !edges;
    data_rows = rows;
    row_length = cols;
    bridges = List.rev !bridges;
  }

let ladder n =
  Grid.graph (Grid.make ~rows:2 ~cols:n)

let ibm_falcon_27 () =
  Graph.of_edges ~n:27
    [
      (0, 1); (1, 2); (1, 4); (2, 3); (3, 5); (4, 7); (5, 8); (6, 7);
      (7, 10); (8, 9); (8, 11); (10, 12); (11, 14); (12, 13); (12, 15);
      (13, 14); (14, 16); (15, 18); (16, 19); (17, 18); (18, 21); (19, 20);
      (19, 22); (21, 23); (22, 25); (23, 24); (24, 25); (25, 26);
    ]
