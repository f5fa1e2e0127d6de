(* Tests for Qr_graph: Graph, Grid, Product, Bfs, Distance. *)

module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Product = Qr_graph.Product
module Bfs = Qr_graph.Bfs
module Distance = Qr_graph.Distance

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------------------------------------------------------- Graph *)

let test_graph_of_edges () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 1); (3, 0) ] in
  checki "vertices" 4 (Graph.num_vertices g);
  checki "edges" 3 (Graph.num_edges g);
  checki "degree 1" 2 (Graph.degree g 1);
  checkb "mem 1-2" true (Graph.mem_edge g 1 2);
  checkb "mem symmetric" true (Graph.mem_edge g 2 1);
  checkb "absent" false (Graph.mem_edge g 2 3)

let test_graph_rejects_loop () =
  Alcotest.check_raises "loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Graph.of_edges: duplicate edge")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]))

let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_graph_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.check
    Alcotest.(array int)
    "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_graph_edges_canonical () =
  let g = Graph.of_edges ~n:4 [ (3, 2); (1, 0) ] in
  Alcotest.check
    Alcotest.(list (pair int int))
    "u < v, lexicographic" [ (0, 1); (2, 3) ] (Graph.edges g)

(* Reference CSR rows by the sort-based construction (one
   [Array.sort compare] per row).  The linear-time [Graph.of_edges] must
   match it, rejections and their messages included. *)
let reference_rows ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative vertex count";
  let check (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop"
  in
  List.iter check edge_list;
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    edge_list;
  Array.map
    (fun row ->
      let row = Array.of_list row in
      Array.sort compare row;
      for k = 1 to Array.length row - 1 do
        if row.(k) = row.(k - 1) then
          invalid_arg "Graph.of_edges: duplicate edge"
      done;
      row)
    rows

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let of_edges_agrees ~n edge_list =
  outcome (fun () -> reference_rows ~n edge_list)
  = outcome (fun () ->
        let g = Graph.of_edges ~n edge_list in
        Array.init (Graph.num_vertices g) (Graph.neighbors g))

let grid_edges rows cols =
  List.concat
    (List.init rows (fun r ->
         List.concat
           (List.init cols (fun c ->
                let v = (r * cols) + c in
                (if c + 1 < cols then [ (v, v + 1) ] else [])
                @ if r + 1 < rows then [ (v, v + cols) ] else []))))

let test_graph_of_edges_matches_reference () =
  let same name g n edges =
    checkb name true
      (Array.init (Graph.num_vertices g) (Graph.neighbors g)
      = reference_rows ~n edges)
  in
  List.iter
    (fun (rows, cols) ->
      let n = rows * cols and edges = grid_edges rows cols in
      let name = Printf.sprintf "grid %dx%d" rows cols in
      same name (Grid.graph (Grid.make ~rows ~cols)) n edges;
      checkb (name ^ " reversed") true (of_edges_agrees ~n (List.rev edges)))
    [ (1, 1); (1, 7); (7, 1); (2, 2); (5, 9); (16, 16); (32, 32) ];
  List.iter
    (fun n ->
      let range = List.init n Fun.id in
      let path = List.init (n - 1) (fun i -> (i, i + 1)) in
      same (Printf.sprintf "path %d" n) (Graph.path n) n path;
      if n >= 3 then
        same (Printf.sprintf "cycle %d" n) (Graph.cycle n) n ((0, n - 1) :: path);
      same (Printf.sprintf "star %d" n) (Graph.star n) n
        (List.init (n - 1) (fun i -> (0, i + 1)));
      same (Printf.sprintf "complete %d" n) (Graph.complete n) n
        (List.concat_map (fun u -> List.map (fun v -> (v, u)) (List.init u Fun.id)) range))
    [ 1; 2; 3; 10; 61; 500 ]

let test_graph_rejections_keep_messages () =
  let rejects name message n edges =
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        ignore (Graph.of_edges ~n edges));
    checkb (name ^ " = reference") true (of_edges_agrees ~n edges)
  in
  let dup = "Graph.of_edges: duplicate edge" in
  rejects "same orientation" dup 3 [ (0, 1); (0, 1) ];
  rejects "far apart" dup 6 [ (4, 5); (0, 1); (2, 3); (1, 2); (5, 4) ];
  rejects "on a hub" dup 5 [ (0, 1); (0, 2); (0, 3); (0, 4); (3, 0) ];
  rejects "loop before a duplicate" "Graph.of_edges: self-loop" 3
    [ (0, 1); (1, 0); (2, 2) ];
  rejects "range before a duplicate" "Graph.of_edges: endpoint out of range" 3
    [ (0, 1); (1, 0); (-1, 2) ];
  rejects "negative n" "Graph.of_edges: negative vertex count" (-1) []

(* Random edge lists over a slightly wider range than [0, n), so loops,
   duplicates and out-of-range endpoints all occur; each list is also
   checked with those filtered out, which leaves a simple graph. *)
let of_edges_reference_property =
  QCheck.Test.make ~name:"of_edges = sort-based reference" ~count:500
    QCheck.(
      pair (int_range 0 16) (small_list (pair (int_range (-1) 17) (int_range (-1) 17))))
    (fun (n, raw) ->
      let seen = Hashtbl.create 16 in
      let simple =
        List.filter
          (fun (u, v) ->
            let key = (min u v, max u v) in
            let keep =
              u <> v && u >= 0 && v >= 0 && u < n && v < n
              && not (Hashtbl.mem seen key)
            in
            if keep then Hashtbl.replace seen key ();
            keep)
          raw
      in
      of_edges_agrees ~n raw && of_edges_agrees ~n simple)

let test_graph_path () =
  let g = Graph.path 5 in
  checki "edges" 4 (Graph.num_edges g);
  checki "endpoint degree" 1 (Graph.degree g 0);
  checki "inner degree" 2 (Graph.degree g 2);
  checkb "connected" true (Graph.is_connected g)

let test_graph_cycle () =
  let g = Graph.cycle 5 in
  checki "edges" 5 (Graph.num_edges g);
  for v = 0 to 4 do
    checki "2-regular" 2 (Graph.degree g v)
  done;
  checkb "wraps" true (Graph.mem_edge g 0 4)

let test_graph_cycle_small_rejected () =
  Alcotest.check_raises "C2"
    (Invalid_argument "Graph.cycle: need at least 3 vertices") (fun () ->
      ignore (Graph.cycle 2))

let test_graph_complete () =
  let g = Graph.complete 6 in
  checki "edges" 15 (Graph.num_edges g);
  checki "max degree" 5 (Graph.max_degree g)

let test_graph_star () =
  let g = Graph.star 7 in
  checki "edges" 6 (Graph.num_edges g);
  checki "center degree" 6 (Graph.degree g 0);
  checki "leaf degree" 1 (Graph.degree g 3)

let test_graph_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  checkb "disconnected" false (Graph.is_connected g)

let test_graph_empty_connected () =
  checkb "empty is connected" true (Graph.is_connected (Graph.of_edges ~n:0 []))

let test_graph_singleton_connected () =
  checkb "one vertex" true (Graph.is_connected (Graph.of_edges ~n:1 []))

let test_graph_fold_neighbors () =
  let g = Graph.star 4 in
  let sum = Graph.fold_neighbors g 0 (fun acc v -> acc + v) 0 in
  checki "sum of leaves" 6 sum

(* ----------------------------------------------------------------- Grid *)

let test_grid_dimensions () =
  let g = Grid.make ~rows:3 ~cols:5 in
  checki "rows" 3 (Grid.rows g);
  checki "cols" 5 (Grid.cols g);
  checki "size" 15 (Grid.size g);
  checki "edges of 3x5" ((2 * 5) + (3 * 4)) (Graph.num_edges (Grid.graph g))

let test_grid_index_coord_roundtrip () =
  let g = Grid.make ~rows:4 ~cols:7 in
  for v = 0 to Grid.size g - 1 do
    let r, c = Grid.coord g v in
    checki "roundtrip" v (Grid.index g r c)
  done

let test_grid_row_major () =
  let g = Grid.make ~rows:3 ~cols:4 in
  checki "(0,0)" 0 (Grid.index g 0 0);
  checki "(0,3)" 3 (Grid.index g 0 3);
  checki "(1,0)" 4 (Grid.index g 1 0);
  checki "(2,3)" 11 (Grid.index g 2 3)

let test_grid_adjacency () =
  let g = Grid.make ~rows:3 ~cols:3 in
  let graph = Grid.graph g in
  checkb "right neighbor" true
    (Graph.mem_edge graph (Grid.index g 1 1) (Grid.index g 1 2));
  checkb "down neighbor" true
    (Graph.mem_edge graph (Grid.index g 1 1) (Grid.index g 2 1));
  checkb "no diagonal" false
    (Graph.mem_edge graph (Grid.index g 0 0) (Grid.index g 1 1));
  checki "corner degree" 2 (Graph.degree graph (Grid.index g 0 0));
  checki "center degree" 4 (Graph.degree graph (Grid.index g 1 1))

let test_grid_manhattan_matches_bfs () =
  let g = Grid.make ~rows:4 ~cols:5 in
  let table = Bfs.all_pairs (Grid.graph g) in
  for u = 0 to Grid.size g - 1 do
    for v = 0 to Grid.size g - 1 do
      checki "closed form = BFS" table.(u).(v) (Grid.manhattan g u v)
    done
  done

(* Out-of-range vertices in either argument position raise, as [coord]
   and [index] do. *)
let test_grid_manhattan_out_of_range () =
  let g = Grid.make ~rows:3 ~cols:4 in
  let n = Grid.size g in
  let raises name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun bad ->
      raises (Printf.sprintf "manhattan %d 0" bad) (fun () ->
          Grid.manhattan g bad 0);
      raises (Printf.sprintf "manhattan 0 %d" bad) (fun () ->
          Grid.manhattan g 0 bad);
      raises (Printf.sprintf "manhattan %d %d" bad bad) (fun () ->
          Grid.manhattan g bad bad))
    [ -1; n ]

let test_grid_transpose () =
  let g = Grid.make ~rows:2 ~cols:3 in
  let gt = Grid.transpose g in
  checki "rows swapped" 3 (Grid.rows gt);
  checki "cols swapped" 2 (Grid.cols gt);
  for v = 0 to Grid.size g - 1 do
    let r, c = Grid.coord g v in
    let r', c' = Grid.coord gt (Grid.transpose_vertex g v) in
    checki "row mirror" c r';
    checki "col mirror" r c'
  done

let test_grid_lines () =
  let g = Grid.make ~rows:3 ~cols:4 in
  Alcotest.check
    Alcotest.(array int)
    "row 1" [| 4; 5; 6; 7 |] (Grid.vertices_in_row g 1);
  Alcotest.check
    Alcotest.(array int)
    "col 2" [| 2; 6; 10 |] (Grid.vertices_in_col g 2)

let test_grid_degenerate () =
  let line = Grid.make ~rows:1 ~cols:6 in
  checki "path edges" 5 (Graph.num_edges (Grid.graph line));
  let dot = Grid.make ~rows:1 ~cols:1 in
  checki "single vertex" 0 (Graph.num_edges (Grid.graph dot))

let test_grid_rejects_empty () =
  Alcotest.check_raises "zero rows"
    (Invalid_argument "Grid.make: dimensions must be positive") (fun () ->
      ignore (Grid.make ~rows:0 ~cols:3));
  (* 2^32 x 2^32 wraps rows * cols to 0 in a 63-bit int. *)
  Alcotest.check_raises "overflowing product"
    (Invalid_argument "Grid.make: too many vertices") (fun () ->
      ignore (Grid.make ~rows:(1 lsl 32) ~cols:(1 lsl 32)))

(* -------------------------------------------------------------- Product *)

let test_product_grid_isomorphic () =
  (* P_m x P_n must equal the grid graph, including flat indexing. *)
  let grid = Grid.make ~rows:3 ~cols:4 in
  let p = Product.of_grid grid in
  let pg = Product.graph p and gg = Grid.graph grid in
  checki "same vertices" (Graph.num_vertices gg) (Graph.num_vertices pg);
  checki "same edge count" (Graph.num_edges gg) (Graph.num_edges pg);
  Graph.iter_edges gg (fun u v ->
      checkb "edge present" true (Graph.mem_edge pg u v))

let test_product_cycle_path () =
  let p = Product.make (Graph.cycle 4) (Graph.path 3) in
  let g = Product.graph p in
  checki "vertices" 12 (Graph.num_vertices g);
  checki "edges" ((3 * 4) + (4 * 2)) (Graph.num_edges g);
  let u_mid = Product.index p 0 1 in
  checki "mid degree" 4 (Graph.degree g u_mid)

let test_product_index_coord () =
  let p = Product.make (Graph.path 3) (Graph.path 5) in
  for x = 0 to Product.size p - 1 do
    let u, v = Product.coord p x in
    checki "roundtrip" x (Product.index p u v)
  done

let test_product_transpose_vertex () =
  let p = Product.make (Graph.path 2) (Graph.path 3) in
  let pt = Product.transpose p in
  for x = 0 to Product.size p - 1 do
    let u, v = Product.coord p x in
    let v', u' = Product.coord pt (Product.transpose_vertex p x) in
    checki "left mirrored" u u';
    checki "right mirrored" v v'
  done

let test_product_edge_rule () =
  let p = Product.make (Graph.path 3) (Graph.path 3) in
  let g = Product.graph p in
  checkb "left edge" true
    (Graph.mem_edge g (Product.index p 0 0) (Product.index p 1 0));
  checkb "right edge" true
    (Graph.mem_edge g (Product.index p 0 0) (Product.index p 0 1));
  checkb "diagonal" false
    (Graph.mem_edge g (Product.index p 0 0) (Product.index p 1 1))

(* ------------------------------------------------------------------ Bfs *)

let test_bfs_distances_path () =
  let g = Graph.path 6 in
  let d = Bfs.distances g 0 in
  Alcotest.check Alcotest.(array int) "linear" [| 0; 1; 2; 3; 4; 5 |] d

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let d = Bfs.distances g 0 in
  checki "reachable" 1 d.(1);
  checkb "unreachable is max_int" true (d.(3) = max_int)

let test_bfs_shortest_path_valid () =
  let g = Grid.graph (Grid.make ~rows:4 ~cols:4) in
  let path = Bfs.shortest_path g 0 15 in
  checki "length = dist + 1" (Bfs.distance g 0 15 + 1) (List.length path);
  checki "starts" 0 (List.hd path);
  checki "ends" 15 (List.nth path (List.length path - 1));
  let rec adjacent = function
    | a :: (b :: _ as rest) -> Graph.mem_edge g a b && adjacent rest
    | _ -> true
  in
  checkb "consecutive adjacency" true (adjacent path)

let test_bfs_shortest_path_self () =
  let g = Graph.path 3 in
  Alcotest.check Alcotest.(list int) "trivial path" [ 1 ] (Bfs.shortest_path g 1 1)

let test_bfs_shortest_path_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Bfs.shortest_path g 0 3))

let test_bfs_diameter () =
  checki "path diameter" 5 (Bfs.diameter (Graph.path 6));
  checki "cycle diameter" 3 (Bfs.diameter (Graph.cycle 6));
  checki "grid diameter" 5 (Bfs.diameter (Grid.graph (Grid.make ~rows:3 ~cols:4)));
  checki "complete diameter" 1 (Bfs.diameter (Graph.complete 5))

let test_bfs_eccentricity_disconnected () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Bfs.eccentricity: disconnected graph") (fun () ->
      ignore (Bfs.eccentricity g 0))

let test_bfs_parents_walk () =
  let g = Grid.graph (Grid.make ~rows:3 ~cols:3) in
  let parent = Bfs.parents g 8 in
  let d = Bfs.distances g 8 in
  for v = 0 to 8 do
    let rec walk x steps = if x = 8 then steps else walk parent.(x) (steps + 1) in
    checki "walk length" d.(v) (walk v 0)
  done

(* ------------------------------------------------------------- Distance *)

let test_distance_grid_vs_graph () =
  let grid = Grid.make ~rows:3 ~cols:4 in
  let dg = Distance.of_grid grid in
  let db = Distance.of_graph (Grid.graph grid) in
  let dl = Distance.of_graph_lazy (Grid.graph grid) in
  for u = 0 to Grid.size grid - 1 do
    for v = 0 to Grid.size grid - 1 do
      checki "grid = table" (Distance.dist db u v) (Distance.dist dg u v);
      checki "lazy = table" (Distance.dist db u v) (Distance.dist dl u v)
    done
  done

let test_distance_product () =
  let g1 = Graph.cycle 4 and g2 = Graph.path 3 in
  let combined =
    Distance.of_product (Distance.of_graph g1) (Distance.of_graph g2)
  in
  let direct = Distance.of_graph (Product.graph (Product.make g1 g2)) in
  for u = 0 to 11 do
    for v = 0 to 11 do
      checki "product additivity" (Distance.dist direct u v)
        (Distance.dist combined u v)
    done
  done

let test_distance_bounds_checked () =
  let d = Distance.of_grid (Grid.make ~rows:2 ~cols:2) in
  Alcotest.check_raises "range"
    (Invalid_argument "Distance.dist: vertex out of range") (fun () ->
      ignore (Distance.dist d 0 7))

let grid_distance_property =
  QCheck.Test.make ~name:"grid manhattan = bfs on random grids" ~count:50
    QCheck.(pair (Arb.int_range 1 6) (Arb.int_range 1 6))
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let table = Bfs.all_pairs (Grid.graph grid) in
      let ok = ref true in
      for u = 0 to (m * n) - 1 do
        for v = 0 to (m * n) - 1 do
          if table.(u).(v) <> Grid.manhattan grid u v then ok := false
        done
      done;
      !ok)

let product_degree_property =
  QCheck.Test.make ~name:"product degree = sum of factor degrees" ~count:50
    QCheck.(pair (Arb.int_range 1 5) (Arb.int_range 1 5))
    (fun (a, b) ->
      let g1 = Graph.path a and g2 = Graph.path b in
      let p = Product.make g1 g2 in
      let g = Product.graph p in
      let ok = ref true in
      for x = 0 to Product.size p - 1 do
        let u, v = Product.coord p x in
        if Graph.degree g x <> Graph.degree g1 u + Graph.degree g2 v then
          ok := false
      done;
      !ok)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qr_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges" `Quick test_graph_of_edges;
          Alcotest.test_case "rejects loop" `Quick test_graph_rejects_loop;
          Alcotest.test_case "rejects duplicate" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects out of range" `Quick
            test_graph_rejects_out_of_range;
          Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
          Alcotest.test_case "edges canonical" `Quick test_graph_edges_canonical;
          Alcotest.test_case "of_edges = reference" `Quick
            test_graph_of_edges_matches_reference;
          Alcotest.test_case "rejections keep messages" `Quick
            test_graph_rejections_keep_messages;
          qc of_edges_reference_property;
          Alcotest.test_case "path" `Quick test_graph_path;
          Alcotest.test_case "cycle" `Quick test_graph_cycle;
          Alcotest.test_case "cycle too small" `Quick test_graph_cycle_small_rejected;
          Alcotest.test_case "complete" `Quick test_graph_complete;
          Alcotest.test_case "star" `Quick test_graph_star;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "empty connected" `Quick test_graph_empty_connected;
          Alcotest.test_case "singleton connected" `Quick
            test_graph_singleton_connected;
          Alcotest.test_case "fold_neighbors" `Quick test_graph_fold_neighbors;
        ] );
      ( "grid",
        [
          Alcotest.test_case "dimensions" `Quick test_grid_dimensions;
          Alcotest.test_case "index/coord roundtrip" `Quick
            test_grid_index_coord_roundtrip;
          Alcotest.test_case "row major" `Quick test_grid_row_major;
          Alcotest.test_case "adjacency" `Quick test_grid_adjacency;
          Alcotest.test_case "manhattan = BFS" `Quick test_grid_manhattan_matches_bfs;
          Alcotest.test_case "manhattan out of range" `Quick
            test_grid_manhattan_out_of_range;
          Alcotest.test_case "transpose" `Quick test_grid_transpose;
          Alcotest.test_case "rows/cols" `Quick test_grid_lines;
          Alcotest.test_case "degenerate" `Quick test_grid_degenerate;
          Alcotest.test_case "rejects empty" `Quick test_grid_rejects_empty;
        ] );
      ( "product",
        [
          Alcotest.test_case "grid isomorphic" `Quick test_product_grid_isomorphic;
          Alcotest.test_case "cylinder" `Quick test_product_cycle_path;
          Alcotest.test_case "index/coord" `Quick test_product_index_coord;
          Alcotest.test_case "transpose vertex" `Quick test_product_transpose_vertex;
          Alcotest.test_case "edge rule" `Quick test_product_edge_rule;
          qc product_degree_property;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path distances" `Quick test_bfs_distances_path;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "shortest path valid" `Quick test_bfs_shortest_path_valid;
          Alcotest.test_case "trivial path" `Quick test_bfs_shortest_path_self;
          Alcotest.test_case "disconnected path" `Quick
            test_bfs_shortest_path_disconnected;
          Alcotest.test_case "diameter" `Quick test_bfs_diameter;
          Alcotest.test_case "eccentricity disconnected" `Quick
            test_bfs_eccentricity_disconnected;
          Alcotest.test_case "parents walk" `Quick test_bfs_parents_walk;
        ] );
      ( "distance",
        [
          Alcotest.test_case "grid vs graph vs lazy" `Quick
            test_distance_grid_vs_graph;
          Alcotest.test_case "product" `Quick test_distance_product;
          Alcotest.test_case "bounds" `Quick test_distance_bounds_checked;
          qc grid_distance_property;
        ] );
    ]
