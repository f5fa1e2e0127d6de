(* Tests for the umbrella entry points, which name engines by registry key,
   over every registered engine. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_of_name_rejects_garbage () =
  checkb "garbage" true (Router_registry.find "quantum-magic" = None);
  checkb "empty" true (Router_registry.find "" = None);
  checkb "case sensitive" true (Router_registry.find "Local" = None)

let test_every_strategy_routes_every_shape () =
  let rng = Rng.create 1 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation rng (m * n)) in
      List.iter
        (fun engine ->
          let sched = route ~engine grid pi in
          checkb
            (Printf.sprintf "%s on %dx%d valid" engine m n)
            true
            (Schedule.is_valid (Grid.graph grid) sched);
          checkb
            (Printf.sprintf "%s on %dx%d realizes" engine m n)
            true
            (Schedule.realizes ~n:(m * n) sched pi))
        (Router_registry.names ()))
    [ (1, 1); (1, 8); (8, 1); (2, 2); (5, 7); (7, 5) ]

let test_every_strategy_identity_free () =
  (* No engine may charge anything for the identity. *)
  let grid = Grid.make ~rows:5 ~cols:5 in
  List.iter
    (fun engine ->
      checki
        (engine ^ " identity depth")
        0
        (Schedule.depth (route ~engine grid (Perm.identity 25))))
    (Router_registry.names ())

let test_default_route_is_best () =
  let grid = Grid.make ~rows:6 ~cols:6 in
  let pi = Generators.generate grid Generators.Random (Rng.create 3) in
  checki "default = Best"
    (Schedule.depth (route ~engine:"best" grid pi))
    (Schedule.depth (route grid pi))

let test_generic_route_on_non_grid () =
  let graphs =
    [ Graph.cycle 7; Graph.star 6; Graph.complete 5;
      (Topology.heavy_hex ~rows:2 ~cols:3).graph ]
  in
  let rng = Rng.create 4 in
  List.iter
    (fun g ->
      let n = Graph.num_vertices g in
      let oracle = Distance.of_graph g in
      let pi = Perm.check (Rng.permutation rng n) in
      List.iter
        (fun engine ->
          let sched =
            Router_registry.route_generic (Router_registry.get engine) g oracle
              pi
          in
          checkb
            (engine ^ " generic valid")
            true
            (Schedule.is_valid g sched);
          checkb
            (engine ^ " generic realizes")
            true
            (Schedule.realizes ~n sched pi))
        [ "ats"; "ats-serial"; "best" ])
    graphs

let test_local_never_deeper_than_worst_case () =
  (* The structural guarantee behind Figure 4's y-axis: 2m + n (or the
     transposed bound) for every instance. *)
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let m = 1 + Rng.int rng 9 and n = 1 + Rng.int rng 9 in
    let grid = Grid.make ~rows:m ~cols:n in
    let pi = Perm.check (Rng.permutation rng (m * n)) in
    let depth = Schedule.depth (route ~engine:"local" grid pi) in
    checkb "worst-case bound" true (depth <= min ((2 * m) + n) ((2 * n) + m))
  done

let strategy_agreement_property =
  QCheck.Test.make ~name:"all strategies realize the same permutation"
    ~count:40
    QCheck.(triple (Arb.int_range 1 5) (Arb.int_range 1 5) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      List.for_all
        (fun engine ->
          Schedule.realizes ~n:(m * n) (route ~engine grid pi) pi)
        (Router_registry.names ()))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "strategy"
    [
      ( "strategy",
        [
          Alcotest.test_case "of_name garbage" `Quick test_of_name_rejects_garbage;
          Alcotest.test_case "all shapes" `Quick
            test_every_strategy_routes_every_shape;
          Alcotest.test_case "identity free" `Quick
            test_every_strategy_identity_free;
          Alcotest.test_case "default = best" `Quick test_default_route_is_best;
          Alcotest.test_case "generic graphs" `Quick test_generic_route_on_non_grid;
          Alcotest.test_case "worst-case bound" `Quick
            test_local_never_deeper_than_worst_case;
          qc strategy_agreement_property;
        ] );
    ]
