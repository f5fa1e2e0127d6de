(* Tests for Qr_circuit: Gate, Circuit, Qasm, Layout, Library. *)

module Grid = Qr_graph.Grid
module Graph = Qr_graph.Graph
module Perm = Qr_perm.Perm
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Qasm = Qr_circuit.Qasm
module Layout = Qr_circuit.Layout
module Library = Qr_circuit.Library
module Schedule = Qr_route.Schedule
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ----------------------------------------------------------------- Gate *)

let test_gate_qubits () =
  Alcotest.check Alcotest.(list int) "one" [ 3 ] (Gate.qubits (Gate.One (Gate.H, 3)));
  Alcotest.check Alcotest.(list int) "two" [ 1; 2 ]
    (Gate.qubits (Gate.Two (Gate.CX, 1, 2)))

let test_gate_predicates () =
  checkb "2q" true (Gate.is_two_qubit (Gate.Two (Gate.CZ, 0, 1)));
  checkb "1q" false (Gate.is_two_qubit (Gate.One (Gate.X, 0)));
  checkb "swap" true (Gate.is_swap (Gate.Two (Gate.SWAP, 0, 1)));
  checkb "cx not swap" false (Gate.is_swap (Gate.Two (Gate.CX, 0, 1)))

let test_gate_map_qubits () =
  let g = Gate.map_qubits (fun q -> q * 2) (Gate.Two (Gate.CX, 1, 3)) in
  checkb "mapped" true (Gate.equal g (Gate.Two (Gate.CX, 2, 6)))

let test_gate_symmetry () =
  checkb "cz" true (Gate.is_symmetric Gate.CZ);
  checkb "swap" true (Gate.is_symmetric Gate.SWAP);
  checkb "cx" false (Gate.is_symmetric Gate.CX)

(* -------------------------------------------------------------- Circuit *)

let test_circuit_create_validates () =
  Alcotest.check_raises "range" (Invalid_argument "Circuit: qubit out of range")
    (fun () -> ignore (Circuit.create ~num_qubits:2 [ Gate.One (Gate.H, 5) ]));
  Alcotest.check_raises "repeat" (Invalid_argument "Circuit: repeated operand")
    (fun () -> ignore (Circuit.create ~num_qubits:2 [ Gate.Two (Gate.CX, 1, 1) ]))

let test_circuit_counts () =
  let c =
    Circuit.create ~num_qubits:3
      [ Gate.One (Gate.H, 0); Gate.Two (Gate.CX, 0, 1);
        Gate.Two (Gate.SWAP, 1, 2) ]
  in
  checki "size" 3 (Circuit.size c);
  checki "2q" 2 (Circuit.two_qubit_count c);
  checki "swaps" 1 (Circuit.swap_count c)

let test_circuit_depth_parallel_gates () =
  let c =
    Circuit.create ~num_qubits:4
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 2, 3) ]
  in
  checki "parallel depth 1" 1 (Circuit.depth c)

let test_circuit_depth_serial_gates () =
  let c =
    Circuit.create ~num_qubits:3
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 1, 2);
        Gate.One (Gate.H, 2) ]
  in
  checki "chained depth 3" 3 (Circuit.depth c)

let test_circuit_paper_example_shape () =
  (* The paper's Figure 1: a 4-qubit, 5-gate circuit of depth 3. *)
  let c =
    Circuit.create ~num_qubits:4
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 2, 3);
        Gate.Two (Gate.CX, 1, 2); Gate.Two (Gate.CX, 0, 3);
        Gate.Two (Gate.CX, 1, 3) ]
  in
  checki "size 5" 5 (Circuit.size c);
  checki "depth 3" 3 (Circuit.depth c)

let test_circuit_layers_cover_gates () =
  let rng = Rng.create 1 in
  let c = Library.random_two_qubit rng ~num_qubits:6 ~gates:30 in
  let layered = List.concat (Circuit.layers c) in
  checki "layers partition gates" (Circuit.size c) (List.length layered);
  checki "layer count = depth" (Circuit.depth c) (List.length (Circuit.layers c))

let test_circuit_two_qubit_layers_ignore_singles () =
  let c =
    Circuit.create ~num_qubits:2
      [ Gate.One (Gate.H, 0); Gate.One (Gate.H, 0); Gate.Two (Gate.CX, 0, 1) ]
  in
  checki "one 2q layer" 1 (List.length (Circuit.two_qubit_layers c))

let test_circuit_concat_mismatch () =
  let a = Circuit.create ~num_qubits:2 [] in
  let b = Circuit.create ~num_qubits:3 [] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Circuit.concat: qubit-count mismatch") (fun () ->
      ignore (Circuit.concat a b))

let test_circuit_of_schedule () =
  let s = Schedule.of_layers [ [| (0, 1); (2, 3) |]; [| (1, 2) |] ] in
  let c = Circuit.of_schedule ~num_qubits:4 s in
  checki "three swaps" 3 (Circuit.swap_count c);
  checki "depth 2" 2 (Circuit.depth c)

let test_expand_swaps () =
  let c = Circuit.create ~num_qubits:2 [ Gate.Two (Gate.SWAP, 0, 1) ] in
  let e = Circuit.expand_swaps c in
  checki "3 CX" 3 (Circuit.size e);
  checki "no swaps left" 0 (Circuit.swap_count e);
  checki "depth 3" 3 (Circuit.depth e)

let test_feasibility () =
  let g = Graph.path 3 in
  let ok = Circuit.create ~num_qubits:3 [ Gate.Two (Gate.CX, 0, 1) ] in
  let bad = Circuit.create ~num_qubits:3 [ Gate.Two (Gate.CX, 0, 2) ] in
  checkb "feasible" true (Circuit.is_feasible g ok);
  checkb "infeasible" false (Circuit.is_feasible g bad);
  checki "one violation" 1 (List.length (Circuit.infeasible_gates g bad))

(* ----------------------------------------------------------------- Qasm *)

let test_qasm_roundtrip () =
  let c =
    Circuit.create ~num_qubits:4
      [ Gate.One (Gate.H, 0); Gate.One (Gate.Rz 0.5, 1);
        Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CP 0.25, 2, 3);
        Gate.Two (Gate.RZZ 1.5, 1, 2); Gate.Two (Gate.SWAP, 0, 3);
        Gate.One (Gate.Tdg, 2) ]
  in
  match Qasm.parse (Qasm.print c) with
  | Ok parsed -> checkb "roundtrip" true (Circuit.equal c parsed)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_qasm_parse_basic () =
  let text = "qubits 3\n# a comment\nh 0\ncx 0 1  # trailing comment\nrz 0.5 2\n" in
  match Qasm.parse text with
  | Ok c ->
      checki "qubits" 3 (Circuit.num_qubits c);
      checki "gates" 3 (Circuit.size c)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_qasm_errors () =
  checkb "missing header" true (Result.is_error (Qasm.parse "h 0\n"));
  checkb "unknown gate" true (Result.is_error (Qasm.parse "qubits 2\nfoo 0\n"));
  checkb "bad qubit" true (Result.is_error (Qasm.parse "qubits 2\nh x\n"));
  checkb "range" true (Result.is_error (Qasm.parse "qubits 2\nh 5\n"));
  List.iter
    (fun (line, msg) ->
      Alcotest.(check (result reject string))
        line
        (Error (Printf.sprintf "line 2: %s: %S" msg line))
        (Qasm.parse ("qubits 2\n" ^ line ^ "\n")))
    [ ("rz inf 0", "bad rotation"); ("rx nan 1", "bad rotation");
      ("ry 1e999 0", "bad rotation"); ("cp -inf 0 1", "bad controlled rotation") ]

let test_qasm_parse_exn () =
  Alcotest.check_raises "exn variant"
    (Invalid_argument "Qasm: missing 'qubits <n>' header") (fun () ->
      ignore (Qasm.parse_exn ""))

let test_qasm_file_io () =
  let c = Library.ghz 4 in
  let path = Filename.temp_file "qroute" ".qasm" in
  Qasm.save path c;
  (match Qasm.load path with
  | Ok loaded -> checkb "file roundtrip" true (Circuit.equal c loaded)
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove path

(* --------------------------------------------------------------- Layout *)

let test_layout_identity () =
  let l = Layout.identity 4 in
  for q = 0 to 3 do
    checki "phys" q (Layout.phys l q);
    checki "logical" q (Layout.logical l q)
  done

let test_layout_inverse_consistency () =
  let l = Layout.of_phys_of_logical [| 2; 0; 1 |] in
  checki "phys 0" 2 (Layout.phys l 0);
  checki "logical of 2" 0 (Layout.logical l 2);
  for q = 0 to 2 do
    checki "roundtrip" q (Layout.logical l (Layout.phys l q))
  done

let test_layout_apply_schedule () =
  let l = Layout.identity 3 in
  (* Swap physical 0 and 1: logical 0 is now on physical 1. *)
  let l' = Layout.apply_schedule l (Schedule.of_layers [ [| (0, 1) |] ]) in
  checki "moved" 1 (Layout.phys l' 0);
  checki "moved" 0 (Layout.phys l' 1);
  checki "fixed" 2 (Layout.phys l' 2)

let test_layout_routing_target () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    let src = Layout.random rng 8 and dst = Layout.random rng 8 in
    let rho = Layout.routing_target ~src ~dst in
    (* Applying rho to src must give dst. *)
    checkb "target reaches dst" true (Layout.equal (Layout.apply_perm src rho) dst)
  done

let test_layout_random_valid () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let l = Layout.random rng 10 in
    checkb "valid" true (Perm.is_permutation (Layout.to_phys_array l))
  done

(* -------------------------------------------------------------- Library *)

let test_qft_shape () =
  let c = Library.qft 4 in
  (* 4 H + 3+2+1 CP + 2 SWAP = 12 gates. *)
  checki "size" 12 (Circuit.size c);
  checki "qubits" 4 (Circuit.num_qubits c);
  let no_rev = Library.qft_no_reversal 4 in
  checki "no reversal" 10 (Circuit.size no_rev)

let test_ghz_shape () =
  let c = Library.ghz 5 in
  checki "size" 5 (Circuit.size c);
  checki "depth" 5 (Circuit.depth c)

let test_ising_feasible_on_grid () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let c = Library.ising_trotter_2d grid ~steps:2 ~theta:0.1 in
  checkb "nearest-neighbour by construction" true
    (Circuit.is_feasible (Grid.graph grid) c);
  checki "gates per step: 12 edges + 9 fields" ((12 + 9) * 2) (Circuit.size c)

let test_random_circuits_valid () =
  let rng = Rng.create 4 in
  let c = Library.random_two_qubit rng ~num_qubits:8 ~gates:50 in
  checki "gate count" 50 (Circuit.size c);
  let grid = Grid.make ~rows:3 ~cols:3 in
  let local = Library.random_local_two_qubit rng ~grid ~radius:2 ~gates:30 in
  List.iter
    (fun g ->
      match Gate.qubits g with
      | [ a; b ] -> checkb "radius bound" true (Grid.manhattan grid a b <= 2)
      | _ -> ())
    (Circuit.gates local)

let test_permutation_circuit_identity () =
  checki "identity empty" 0 (Circuit.size (Library.permutation_circuit (Perm.identity 5)))

let test_permutation_circuit_realizes () =
  let rng = Rng.create 5 in
  for n = 2 to 8 do
    let pi = Perm.check (Rng.permutation rng n) in
    let c = Library.permutation_circuit pi in
    (* Interpret the SWAP gates as a schedule and check it realizes pi. *)
    let sched =
      Schedule.of_layers
        (List.map
           (fun g ->
             match g with
             | Gate.Two (Gate.SWAP, a, b) -> [| (a, b) |]
             | _ -> Alcotest.fail "only swaps expected")
           (Circuit.gates c))
    in
    checkb "realizes" true (Schedule.realizes ~n sched pi)
  done

let () =
  Alcotest.run "qr_circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "qubits" `Quick test_gate_qubits;
          Alcotest.test_case "predicates" `Quick test_gate_predicates;
          Alcotest.test_case "map_qubits" `Quick test_gate_map_qubits;
          Alcotest.test_case "symmetry" `Quick test_gate_symmetry;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "create validates" `Quick test_circuit_create_validates;
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "parallel depth" `Quick test_circuit_depth_parallel_gates;
          Alcotest.test_case "serial depth" `Quick test_circuit_depth_serial_gates;
          Alcotest.test_case "paper Figure 1 shape" `Quick
            test_circuit_paper_example_shape;
          Alcotest.test_case "layers cover" `Quick test_circuit_layers_cover_gates;
          Alcotest.test_case "2q layers" `Quick
            test_circuit_two_qubit_layers_ignore_singles;
          Alcotest.test_case "concat mismatch" `Quick test_circuit_concat_mismatch;
          Alcotest.test_case "of_schedule" `Quick test_circuit_of_schedule;
          Alcotest.test_case "expand swaps" `Quick test_expand_swaps;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
        ] );
      ( "qasm",
        [
          Alcotest.test_case "roundtrip" `Quick test_qasm_roundtrip;
          Alcotest.test_case "parse basic" `Quick test_qasm_parse_basic;
          Alcotest.test_case "errors" `Quick test_qasm_errors;
          Alcotest.test_case "parse_exn" `Quick test_qasm_parse_exn;
          Alcotest.test_case "file io" `Quick test_qasm_file_io;
        ] );
      ( "layout",
        [
          Alcotest.test_case "identity" `Quick test_layout_identity;
          Alcotest.test_case "inverse consistency" `Quick
            test_layout_inverse_consistency;
          Alcotest.test_case "apply schedule" `Quick test_layout_apply_schedule;
          Alcotest.test_case "routing target" `Quick test_layout_routing_target;
          Alcotest.test_case "random valid" `Quick test_layout_random_valid;
        ] );
      ( "library",
        [
          Alcotest.test_case "qft shape" `Quick test_qft_shape;
          Alcotest.test_case "ghz shape" `Quick test_ghz_shape;
          Alcotest.test_case "ising feasible" `Quick test_ising_feasible_on_grid;
          Alcotest.test_case "random circuits" `Quick test_random_circuits_valid;
          Alcotest.test_case "perm circuit identity" `Quick
            test_permutation_circuit_identity;
          Alcotest.test_case "perm circuit realizes" `Quick
            test_permutation_circuit_realizes;
        ] );
    ]
