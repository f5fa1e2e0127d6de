(* Tests for Qr_circuit.Transpile: the mapping/routing alternation. *)

module Grid = Qr_graph.Grid
module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Layout = Qr_circuit.Layout
module Transpile = Qr_circuit.Transpile
module Library = Qr_circuit.Library
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let local_engine () = Qroute.Router_registry.get "local"

let test_feasible_circuit_untouched () =
  let grid = Grid.make ~rows:2 ~cols:3 in
  let c = Library.ising_trotter_2d grid ~steps:1 ~theta:0.3 in
  let r = Transpile.run_grid grid c in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) r);
  checki "no routing needed" 0 r.routed_slices;
  checki "no swaps" 0 (Circuit.swap_count r.physical);
  checki "same size" (Circuit.size c) (Circuit.size r.physical);
  checkb "layout unchanged" true (Layout.equal r.initial r.final)

let test_single_distant_gate () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  (* Qubits 0 and 8 are the opposite corners. *)
  let c = Circuit.create ~num_qubits:9 [ Gate.Two (Gate.CX, 0, 8) ] in
  let r = Transpile.run_grid grid c in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) r);
  checki "one routed slice" 1 r.routed_slices;
  checkb "inserted swaps" true (Circuit.swap_count r.physical > 0);
  (* The CX must survive with its operands adjacent at execution time. *)
  checki "one cx" 1
    (List.length
       (List.filter
          (fun g -> match g with Gate.Two (Gate.CX, _, _) -> true | _ -> false)
          (Circuit.gates r.physical)))

let test_gate_count_preserved () =
  (* Every logical gate appears exactly once; only SWAPs are added. *)
  let rng = Rng.create 1 in
  let grid = Grid.make ~rows:3 ~cols:3 in
  let c = Library.random_two_qubit rng ~num_qubits:9 ~gates:40 in
  let r = Transpile.run_grid grid c in
  checki "logical gates preserved"
    (Circuit.size c)
    (Circuit.size r.physical - Circuit.swap_count r.physical)

let test_initial_layout_respected () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let initial = Layout.of_phys_of_logical [| 3; 2; 1; 0 |] in
  (* Logical 0 and 1 sit on physical 3 and 2, which are adjacent. *)
  let c = Circuit.create ~num_qubits:4 [ Gate.Two (Gate.CX, 0, 1) ] in
  let r = Transpile.run_grid ~initial grid c in
  checki "no routing" 0 r.routed_slices;
  (match Circuit.gates r.physical with
  | [ Gate.Two (Gate.CX, a, b) ] ->
      checki "control on phys 3" 3 a;
      checki "target on phys 2" 2 b
  | _ -> Alcotest.fail "expected exactly the mapped CX");
  checkb "layout preserved" true (Layout.equal r.initial initial)

let test_size_mismatch_rejected () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let c = Circuit.create ~num_qubits:3 [] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Transpile.run: circuit and device sizes differ")
    (fun () -> ignore (Transpile.run_grid grid c))

let test_single_qubit_gates_follow_layout () =
  let grid = Grid.make ~rows:1 ~cols:4 in
  (* Force routing between two H gates on qubit 0 and check the second H
     lands wherever qubit 0 ends up. *)
  let c =
    Circuit.create ~num_qubits:4
      [ Gate.One (Gate.H, 0); Gate.Two (Gate.CX, 0, 3); Gate.One (Gate.H, 0) ]
  in
  let r = Transpile.run_grid grid c in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) r);
  let hs =
    List.filter_map
      (fun g -> match g with Gate.One (Gate.H, q) -> Some q | _ -> None)
      (Circuit.gates r.physical)
  in
  checki "two H gates" 2 (List.length hs);
  checki "first H at initial position" 0 (List.hd hs);
  checki "second H follows the qubit" (Layout.phys r.final 0) (List.nth hs 1)

let test_every_strategy_router () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let rng = Rng.create 2 in
  let c = Library.random_two_qubit rng ~num_qubits:9 ~gates:25 in
  List.iter
    (fun engine ->
      let r = Qroute.transpile ~engine grid c in
      checkb
        ("feasible with " ^ engine)
        true
        (Transpile.verify_feasible (Grid.graph grid) r))
    (Qroute.Router_registry.names ())

let test_generic_graph_transpile () =
  (* Transpile on a cycle coupling graph using the generic entry point. *)
  let g = Graph.cycle 6 in
  let oracle = Distance.of_graph g in
  let rng = Rng.create 3 in
  let c = Library.random_two_qubit rng ~num_qubits:6 ~gates:15 in
  let router rho = Qr_token.Parallel_ats.route ~trials:1 g oracle rho in
  let r = Transpile.run ~graph:g ~dist:oracle ~router c in
  checkb "feasible on cycle" true (Circuit.is_feasible g r.physical)

let test_qft_on_line_heavy_routing () =
  (* QFT on a line needs lots of routing (the paper's extreme case). *)
  let grid = Grid.make ~rows:1 ~cols:6 in
  let c = Library.qft 6 in
  let r = Transpile.run_grid grid c in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) r);
  checkb "swaps added" true (Circuit.swap_count r.physical > 0);
  checkb "routing happened" true (r.routed_slices > 0)

let test_swap_layers_accounting () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let c = Circuit.create ~num_qubits:9 [ Gate.Two (Gate.CX, 0, 8) ] in
  let r = Transpile.run_grid grid c in
  checkb "swap layer count positive" true (r.swap_layers > 0)

let test_min_total_extension_correct_and_no_worse () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let rng = Rng.create 9 in
  let c = Library.random_two_qubit rng ~num_qubits:16 ~gates:50 in
  let nearest = Transpile.run_grid ~extension:Transpile.Nearest grid c in
  let hungarian = Transpile.run_grid ~extension:Transpile.Min_total grid c in
  checkb "nearest feasible" true (Circuit.is_feasible (Grid.graph grid) nearest.physical);
  checkb "min-total feasible" true
    (Circuit.is_feasible (Grid.graph grid) hungarian.physical);
  (* Both must preserve semantics; check the Hungarian variant exactly. *)
  let psi = Statevector.random_state (Rng.create 1) 16 in
  let out_logical = Statevector.run c psi in
  let placed =
    Statevector.permute_qubits psi (Layout.to_phys_array hungarian.initial)
  in
  let out_phys = Statevector.run hungarian.physical placed in
  let back = Array.init 16 (fun v -> Layout.logical hungarian.final v) in
  checkb "min-total equivalent" true
    (Statevector.approx_equal out_logical
       (Statevector.permute_qubits out_phys back));
  (* Empirically the optimal completion should not lose by much; allow 20%
     slack to keep the test robust across instances. *)
  checkb "min-total competitive" true
    (Circuit.swap_count hungarian.physical
    <= Circuit.swap_count nearest.physical * 6 / 5)

let transpile_property =
  QCheck.Test.make ~name:"transpilation always yields a feasible circuit"
    ~count:50
    QCheck.(triple (Arb.int_range 2 4) (Arb.int_range 2 4) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let rng = Rng.create seed in
      let c = Library.random_two_qubit rng ~num_qubits:(m * n) ~gates:20 in
      let r =
        Transpile.run_grid ~engine:(local_engine ()) grid c
      in
      Circuit.is_feasible (Grid.graph grid) r.physical
      && Circuit.size r.physical - Circuit.swap_count r.physical
         = Circuit.size c)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "transpile"
    [
      ( "transpile",
        [
          Alcotest.test_case "feasible untouched" `Quick
            test_feasible_circuit_untouched;
          Alcotest.test_case "distant gate" `Quick test_single_distant_gate;
          Alcotest.test_case "gate count preserved" `Quick
            test_gate_count_preserved;
          Alcotest.test_case "initial layout" `Quick test_initial_layout_respected;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch_rejected;
          Alcotest.test_case "1q gates follow" `Quick
            test_single_qubit_gates_follow_layout;
          Alcotest.test_case "all strategies" `Quick test_every_strategy_router;
          Alcotest.test_case "generic graph" `Quick test_generic_graph_transpile;
          Alcotest.test_case "qft on line" `Quick test_qft_on_line_heavy_routing;
          Alcotest.test_case "swap layers" `Quick test_swap_layers_accounting;
          Alcotest.test_case "min-total extension" `Quick
            test_min_total_extension_correct_and_no_worse;
          qc transpile_property;
        ] );
    ]
