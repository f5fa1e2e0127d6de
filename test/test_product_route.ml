(* Tests for Qr_route.Product_route: the Cartesian-product extension. *)

module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Product = Qr_graph.Product
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Path_route = Qr_route.Path_route
module Product_route = Qr_route.Product_route
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Factor router for paths: odd-even transposition. *)
let path_router g pi =
  assert (Graph.num_vertices g = Array.length pi);
  List.map Array.of_list (Path_route.route_min_parity pi)

(* Generic factor router for non-path factors: parallel token swapping. *)
let ats_router g pi =
  Qr_token.Parallel_ats.route ~trials:1 g (Distance.of_graph g) pi

let test_grid_as_product_matches_grid_router () =
  (* path x path routing must be correct and comparable to the native
     grid router. *)
  let rng = Rng.create 1 in
  List.iter
    (fun (m, n) ->
      let p = Product.make (Graph.path m) (Graph.path n) in
      let total = m * n in
      for _ = 1 to 5 do
        let pi = Perm.check (Rng.permutation rng total) in
        let s =
          Product_route.route ~route1:path_router ~route2:path_router p pi
        in
        checkb "valid" true (Schedule.is_valid (Product.graph p) s);
        checkb "realizes" true (Schedule.realizes ~n:total s pi)
      done)
    [ (2, 2); (3, 4); (5, 3); (1, 4); (4, 1) ]

let test_product_flat_indexing_matches_grid () =
  (* The product path x path router's schedules are valid on the grid graph
     itself (same flat indexing). *)
  let rng = Rng.create 2 in
  let grid = Grid.make ~rows:4 ~cols:5 in
  let p = Product.of_grid grid in
  let pi = Perm.check (Rng.permutation rng 20) in
  let s = Product_route.route ~route1:path_router ~route2:path_router p pi in
  checkb "valid on grid graph" true (Schedule.is_valid (Grid.graph grid) s)

let test_cylinder_routing () =
  (* cycle x path: the "grid-like" architecture of the paper's extension. *)
  let rng = Rng.create 3 in
  let p = Product.make (Graph.cycle 4) (Graph.path 3) in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 12) in
    let s = Product_route.route ~route1:ats_router ~route2:path_router p pi in
    checkb "valid" true (Schedule.is_valid (Product.graph p) s);
    checkb "realizes" true (Schedule.realizes ~n:12 s pi)
  done

let test_torus_routing () =
  let rng = Rng.create 4 in
  let p = Product.make (Graph.cycle 3) (Graph.cycle 4) in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 12) in
    let s = Product_route.route ~route1:ats_router ~route2:ats_router p pi in
    checkb "realizes" true (Schedule.realizes ~n:12 s pi)
  done

let test_locality_flag_both_work () =
  let rng = Rng.create 5 in
  let p = Product.make (Graph.path 4) (Graph.cycle 5) in
  let pi = Perm.check (Rng.permutation rng 20) in
  List.iter
    (fun locality ->
      let s =
        Product_route.route ~locality ~route1:path_router ~route2:ats_router p
          pi
      in
      checkb "realizes" true (Schedule.realizes ~n:20 s pi))
    [ true; false ]

let test_best_orientation () =
  let rng = Rng.create 6 in
  let p = Product.make (Graph.path 3) (Graph.path 6) in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 18) in
    let direct =
      Product_route.route ~route1:path_router ~route2:path_router p pi
    in
    let best =
      Product_route.route_best_orientation ~route1:path_router
        ~route2:path_router p pi
    in
    checkb "realizes" true (Schedule.realizes ~n:18 best pi);
    checkb "valid on original product" true
      (Schedule.is_valid (Product.graph p) best);
    checkb "no worse than direct" true
      (Schedule.depth best <= Schedule.depth direct)
  done

let test_identity_is_free () =
  let p = Product.make (Graph.path 3) (Graph.path 3) in
  let s =
    Product_route.route ~route1:path_router ~route2:path_router p
      (Perm.identity 9)
  in
  checki "empty schedule" 0 (Schedule.depth s)

(* Whole schedules, pinned by digest: the MD5 over the MD5s of
   [Schedule.to_string] for every schedule of the corpus.  Path factors
   use odd-even transposition, cycle factors single-trial parallel ATS;
   every product is routed with both [locality] settings, directly and
   over both orientations.  Recorded before the product router moved
   onto the grid's column graph, band search and sigma builder; a change
   here is a changed schedule. *)
let test_whole_schedule_digest () =
  let path = (Graph.path, path_router) and cycle = (Graph.cycle, ats_router) in
  let products =
    [
      (path, 1, path, 5); (path, 5, path, 1); (path, 2, path, 2);
      (path, 3, path, 4); (path, 4, path, 3); (path, 5, path, 5);
      (path, 6, path, 4); (path, 4, path, 7); (cycle, 4, path, 3);
      (path, 4, cycle, 5); (cycle, 3, cycle, 4); (cycle, 5, path, 2);
    ]
  in
  let digests = Buffer.create 1024 in
  List.iteri
    (fun k ((make1, route1), n1, (make2, route2), n2) ->
      let p = Product.make (make1 n1) (make2 n2) in
      for seed = 0 to 14 do
        let rng = Rng.create ((100 * k) + seed) in
        let pi = Perm.check (Rng.permutation rng (n1 * n2)) in
        List.iter
          (fun locality ->
            List.iter
              (fun route ->
                let s = route ?locality:(Some locality) ~route1 ~route2 p pi in
                Buffer.add_string digests
                  (Digest.string (Schedule.to_string s)))
              [ Product_route.route; Product_route.route_best_orientation ])
          [ true; false ]
      done)
    products;
  Alcotest.check Alcotest.string "720 schedules"
    "c929638fcc3d47b7b84497ee3edc696a"
    (Digest.to_hex (Digest.string (Buffer.contents digests)))

let product_route_property =
  QCheck.Test.make ~name:"product routing correct on random factors"
    ~count:60
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 0 100000))
    (fun (a, b, seed) ->
      let p = Product.make (Graph.path a) (Graph.path b) in
      let rng = Rng.create seed in
      let pi = Perm.check (Rng.permutation rng (a * b)) in
      let s = Product_route.route ~route1:path_router ~route2:path_router p pi in
      Schedule.is_valid (Product.graph p) s
      && Schedule.realizes ~n:(a * b) s pi)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "product_route"
    [
      ( "product_route",
        [
          Alcotest.test_case "grid as product" `Quick
            test_grid_as_product_matches_grid_router;
          Alcotest.test_case "flat indexing" `Quick
            test_product_flat_indexing_matches_grid;
          Alcotest.test_case "cylinder" `Quick test_cylinder_routing;
          Alcotest.test_case "torus" `Quick test_torus_routing;
          Alcotest.test_case "locality flag" `Quick test_locality_flag_both_work;
          Alcotest.test_case "best orientation" `Quick test_best_orientation;
          Alcotest.test_case "identity free" `Quick test_identity_is_free;
          Alcotest.test_case "whole-schedule digest" `Quick
            test_whole_schedule_digest;
          qc product_route_property;
        ] );
    ]
