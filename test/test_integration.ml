(* End-to-end integration tests: the routing stack, the transpiler and the
   statevector simulator must all agree with each other. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* The canonical transpilation correctness statement: running the physical
   circuit from a state whose qubits are placed by the initial layout, then
   undoing the final layout, must reproduce the logical circuit's output on
   every input state. *)
let transpilation_equivalent grid logical (result : Transpile.result) seed =
  let n = Grid.size grid in
  let rng = Rng.create seed in
  let psi = Statevector.random_state rng n in
  let out_logical = Statevector.run logical psi in
  let psi_phys =
    Statevector.permute_qubits psi (Layout.to_phys_array result.initial)
  in
  let out_phys = Statevector.run result.physical psi_phys in
  let back = Array.init n (fun v -> Layout.logical result.final v) in
  Statevector.approx_equal out_logical
    (Statevector.permute_qubits out_phys back)

let test_qft_all_strategies () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let logical = Library.qft 9 in
  List.iter
    (fun engine ->
      let result = transpile ~engine grid logical in
      checkb
        ("feasible: " ^ engine)
        true
        (Transpile.verify_feasible (Grid.graph grid) result);
      checkb
        ("unitary-equivalent: " ^ engine)
        true
        (transpilation_equivalent grid logical result 42))
    [ "local"; "naive"; "ats"; "best" ]

let test_qft_on_line () =
  (* The paper's worst case: QFT on a path. *)
  let grid = Grid.make ~rows:1 ~cols:7 in
  let logical = Library.qft 7 in
  let result = transpile grid logical in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) result);
  checkb "equivalent" true (transpilation_equivalent grid logical result 1)

let test_ising_trotter_random_initial_layout () =
  let grid = Grid.make ~rows:2 ~cols:4 in
  let logical = Library.ising_trotter_2d grid ~steps:2 ~theta:0.37 in
  let rng = Rng.create 7 in
  for seed = 0 to 2 do
    let initial = Layout.random rng 8 in
    let result = transpile ~initial grid logical in
    checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) result);
    checkb "equivalent under random initial layout" true
      (transpilation_equivalent grid logical result seed)
  done

let test_random_circuits_equivalence () =
  let grid = Grid.make ~rows:2 ~cols:4 in
  let rng = Rng.create 11 in
  for seed = 0 to 4 do
    let logical = Library.random_two_qubit rng ~num_qubits:8 ~gates:30 in
    let result = transpile grid logical in
    checkb "equivalent" true (transpilation_equivalent grid logical result seed)
  done

let test_random_local_circuits_cheaper () =
  (* Local circuits should need fewer swaps than global ones of the same
     size: the locality claim at transpiler level. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  let rng = Rng.create 13 in
  let global = Library.random_two_qubit rng ~num_qubits:16 ~gates:60 in
  let local = Library.random_local_two_qubit rng ~grid ~radius:2 ~gates:60 in
  let swaps c = Circuit.swap_count (transpile grid c).physical in
  checkb "locality pays" true (swaps local <= swaps global)

let test_schedule_as_swap_circuit_matches_relabeling () =
  (* A schedule realizing pi, interpreted as SWAP gates, must act on the
     statevector exactly as relabeling qubits by pi. *)
  let grid = Grid.make ~rows:3 ~cols:3 in
  let rng = Rng.create 17 in
  for seed = 0 to 4 do
    let pi = Perm.check (Rng.permutation (Rng.create (100 + seed)) 9) in
    let sched = route grid pi in
    let circuit = Circuit.of_schedule ~num_qubits:9 sched in
    let psi = Statevector.random_state rng 9 in
    let by_circuit = Statevector.run circuit psi in
    let by_relabel = Statevector.permute_qubits psi pi in
    checkb "swap circuit = qubit relabeling" true
      (Statevector.approx_equal by_circuit by_relabel)
  done

let test_permutation_circuit_matches_relabeling () =
  let rng = Rng.create 19 in
  for n = 2 to 8 do
    let pi = Perm.check (Rng.permutation rng n) in
    let psi = Statevector.random_state rng n in
    let by_circuit = Statevector.run (Library.permutation_circuit pi) psi in
    let by_relabel = Statevector.permute_qubits psi pi in
    checkb "perm circuit = relabeling" true
      (Statevector.approx_equal by_circuit by_relabel)
  done

let test_all_routers_agree_on_realized_permutation () =
  let grid = Grid.make ~rows:6 ~cols:7 in
  let rng = Rng.create 23 in
  List.iter
    (fun kind ->
      let pi = Generators.generate grid kind rng in
      List.iter
        (fun engine ->
          let s = route ~engine grid pi in
          checkb
            (engine ^ " on " ^ Generators.name kind)
            true
            (Perm.equal (Permsim.realized ~n:42 s) pi))
        (Router_registry.names ()))
    (Generators.paper_kinds grid)

let test_expanded_swaps_still_equivalent () =
  (* After 3-CX expansion the transpiled circuit must still be correct. *)
  let grid = Grid.make ~rows:2 ~cols:3 in
  let logical = Library.qft 6 in
  let result = transpile grid logical in
  let expanded = Circuit.expand_swaps result.physical in
  let rng = Rng.create 29 in
  let psi = Statevector.random_state rng 6 in
  let a = Statevector.run result.physical psi in
  let b = Statevector.run expanded psi in
  checkb "3-CX expansion preserves semantics" true (Statevector.approx_equal a b)

let test_qasm_end_to_end () =
  let grid = Grid.make ~rows:2 ~cols:3 in
  let logical = Library.qft 6 in
  let text = Qasm.print logical in
  let reparsed = Qasm.parse_exn text in
  let result = transpile grid reparsed in
  checkb "parse -> transpile -> verify" true
    (transpilation_equivalent grid reparsed result 3)

let test_best_strategy_is_min_of_local_and_naive () =
  let grid = Grid.make ~rows:8 ~cols:8 in
  let rng = Rng.create 31 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 64) in
    let best = Schedule.depth (route ~engine:"best" grid pi) in
    let local = Schedule.depth (route ~engine:"local" grid pi) in
    let naive = Schedule.depth (route ~engine:"naive" grid pi) in
    checki "best = min(local, naive)" (min local naive) best
  done

let test_paper_headline_random_workload () =
  (* Figure 4's headline: on random permutations the locality-aware router
     beats parallel ATS in depth (here on a 12x12 grid, 3 seeds). *)
  let grid = Grid.make ~rows:12 ~cols:12 in
  for seed = 0 to 2 do
    let pi =
      Generators.generate grid Generators.Random (Rng.create (500 + seed))
    in
    let local = Schedule.depth (route ~engine:"local" grid pi) in
    let ats = Schedule.depth (route ~engine:"ats" grid pi) in
    checkb
      (Printf.sprintf "local (%d) < ats (%d)" local ats)
      true (local < ats)
  done

let test_paper_block_local_comparable () =
  (* Figure 4's second claim: on block-local permutations the two are
     comparable (within 2x either way here). *)
  let grid = Grid.make ~rows:12 ~cols:12 in
  for seed = 0 to 2 do
    let pi =
      Generators.generate grid (Generators.Block_local 3)
        (Rng.create (600 + seed))
    in
    let local = Schedule.depth (route ~engine:"local" grid pi) in
    let ats = Schedule.depth (route ~engine:"ats" grid pi) in
    checkb
      (Printf.sprintf "comparable: local=%d ats=%d" local ats)
      true
      (local <= 2 * ats && ats <= 2 * local)
  done

let test_product_router_on_cylinder_torus () =
  (* The grid-like extension end to end, checked by token simulation. *)
  let rng = Rng.create 37 in
  let path_router g pi =
    assert (Graph.num_vertices g = Array.length pi);
    List.map Array.of_list (Path_route.route_min_parity pi)
  in
  let ats_router g pi =
    Parallel_ats.route ~trials:1 g (Distance.of_graph g) pi
  in
  let cases =
    [ ("cylinder", Product.make (Graph.cycle 5) (Graph.path 4), ats_router, path_router);
      ("torus", Product.make (Graph.cycle 4) (Graph.cycle 5), ats_router, ats_router) ]
  in
  List.iter
    (fun (label, p, r1, r2) ->
      for _ = 1 to 3 do
        let pi = Perm.check (Rng.permutation rng (Product.size p)) in
        let s = Product_route.route ~route1:r1 ~route2:r2 p pi in
        checkb (label ^ " valid") true (Schedule.is_valid (Product.graph p) s);
        checkb (label ^ " realizes") true
          (Perm.equal (Permsim.realized ~n:(Product.size p) s) pi)
      done)
    cases

let () =
  Alcotest.run "integration"
    [
      ( "transpile+simulate",
        [
          Alcotest.test_case "qft all strategies" `Quick test_qft_all_strategies;
          Alcotest.test_case "qft on line" `Quick test_qft_on_line;
          Alcotest.test_case "ising random layout" `Quick
            test_ising_trotter_random_initial_layout;
          Alcotest.test_case "random circuits" `Quick
            test_random_circuits_equivalence;
          Alcotest.test_case "locality pays" `Quick
            test_random_local_circuits_cheaper;
          Alcotest.test_case "expanded swaps" `Quick
            test_expanded_swaps_still_equivalent;
          Alcotest.test_case "qasm end to end" `Quick test_qasm_end_to_end;
        ] );
      ( "routing semantics",
        [
          Alcotest.test_case "schedule = relabeling" `Quick
            test_schedule_as_swap_circuit_matches_relabeling;
          Alcotest.test_case "perm circuit = relabeling" `Quick
            test_permutation_circuit_matches_relabeling;
          Alcotest.test_case "routers agree" `Quick
            test_all_routers_agree_on_realized_permutation;
          Alcotest.test_case "best = min" `Quick
            test_best_strategy_is_min_of_local_and_naive;
          Alcotest.test_case "products" `Quick test_product_router_on_cylinder_torus;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "random: local wins" `Quick
            test_paper_headline_random_workload;
          Alcotest.test_case "block-local comparable" `Quick
            test_paper_block_local_comparable;
        ] );
    ]
