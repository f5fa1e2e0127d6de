(* Tests for the simulators: Statevector and Permsim. *)

module Grid = Qr_graph.Grid
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Library = Qr_circuit.Library
module Schedule = Qr_route.Schedule
module SV = Statevector
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let circuit n gates = Circuit.create ~num_qubits:n gates

(* ------------------------------------------------------------ Statevector *)

let test_zero_state () =
  let s = SV.zero_state 3 in
  checki "dim" 8 (SV.dim s);
  checkf "amp(0)" 1. (fst (SV.amplitude s 0));
  checkf "norm" 1. (SV.norm s)

let test_x_flips () =
  let s = SV.run_from_zero (circuit 2 [ Gate.One (Gate.X, 0) ]) in
  checkf "now |01> (bit 0 set)" 1. (fst (SV.amplitude s 1))

let test_x_on_second_qubit () =
  let s = SV.run_from_zero (circuit 2 [ Gate.One (Gate.X, 1) ]) in
  checkf "now |10> (bit 1 set)" 1. (fst (SV.amplitude s 2))

let test_h_superposition () =
  let s = SV.run_from_zero (circuit 1 [ Gate.One (Gate.H, 0) ]) in
  let r0, _ = SV.amplitude s 0 and r1, _ = SV.amplitude s 1 in
  checkf "amp0" (sqrt 0.5) r0;
  checkf "amp1" (sqrt 0.5) r1

let test_hh_is_identity () =
  let s =
    SV.run_from_zero (circuit 1 [ Gate.One (Gate.H, 0); Gate.One (Gate.H, 0) ])
  in
  checkb "back to |0>" true (SV.approx_equal s (SV.zero_state 1))

let test_xx_yy_zz_ss_tt_identities () =
  let checks =
    [ ([ Gate.One (Gate.X, 0); Gate.One (Gate.X, 0) ], "XX");
      ([ Gate.One (Gate.Y, 0); Gate.One (Gate.Y, 0) ], "YY");
      ([ Gate.One (Gate.Z, 0); Gate.One (Gate.Z, 0) ], "ZZ");
      ([ Gate.One (Gate.S, 0); Gate.One (Gate.Sdg, 0) ], "S Sdg");
      ([ Gate.One (Gate.T, 0); Gate.One (Gate.Tdg, 0) ], "T Tdg") ]
  in
  let rng = Rng.create 1 in
  List.iter
    (fun (gates, label) ->
      let psi = SV.random_state rng 1 in
      let out = SV.run (circuit 1 gates) psi in
      checkb label true (SV.approx_equal out psi))
    checks

let test_s_equals_tt () =
  let rng = Rng.create 2 in
  let psi = SV.random_state rng 1 in
  let s = SV.run (circuit 1 [ Gate.One (Gate.S, 0) ]) psi in
  let tt = SV.run (circuit 1 [ Gate.One (Gate.T, 0); Gate.One (Gate.T, 0) ]) psi in
  checkb "S = T^2" true (SV.approx_equal s tt)

let test_rotation_composition () =
  let rng = Rng.create 3 in
  let psi = SV.random_state rng 1 in
  let a = SV.run (circuit 1 [ Gate.One (Gate.Rz 0.4, 0); Gate.One (Gate.Rz 0.6, 0) ]) psi in
  let b = SV.run (circuit 1 [ Gate.One (Gate.Rz 1.0, 0) ]) psi in
  checkb "Rz adds angles" true (SV.approx_equal a b)

let test_h_z_h_is_x () =
  let rng = Rng.create 4 in
  let psi = SV.random_state rng 1 in
  let hzh =
    SV.run
      (circuit 1 [ Gate.One (Gate.H, 0); Gate.One (Gate.Z, 0); Gate.One (Gate.H, 0) ])
      psi
  in
  let x = SV.run (circuit 1 [ Gate.One (Gate.X, 0) ]) psi in
  checkb "HZH = X" true (SV.approx_equal hzh x)

let test_cx_action () =
  (* |10> -(CX control 1)-> |11> *)
  let s =
    SV.run_from_zero (circuit 2 [ Gate.One (Gate.X, 1); Gate.Two (Gate.CX, 1, 0) ])
  in
  checkf "flipped to |11>" 1. (fst (SV.amplitude s 3))

let test_cx_control_zero_noop () =
  let s = SV.run_from_zero (circuit 2 [ Gate.Two (Gate.CX, 1, 0) ]) in
  checkf "still |00>" 1. (fst (SV.amplitude s 0))

let test_bell_state () =
  let s =
    SV.run_from_zero (circuit 2 [ Gate.One (Gate.H, 0); Gate.Two (Gate.CX, 0, 1) ])
  in
  let p = SV.measure_probabilities s in
  checkf "p(00)" 0.5 p.(0);
  checkf "p(11)" 0.5 p.(3);
  checkf "p(01)" 0. p.(1)

let test_ghz_probabilities () =
  let s = SV.run_from_zero (Library.ghz 4) in
  let p = SV.measure_probabilities s in
  checkf "p(0000)" 0.5 p.(0);
  checkf "p(1111)" 0.5 p.(15)

let test_cz_symmetric () =
  let rng = Rng.create 5 in
  let psi = SV.random_state rng 2 in
  let a = SV.run (circuit 2 [ Gate.Two (Gate.CZ, 0, 1) ]) psi in
  let b = SV.run (circuit 2 [ Gate.Two (Gate.CZ, 1, 0) ]) psi in
  checkb "CZ operand order irrelevant" true (SV.approx_equal a b)

let test_cp_pi_is_cz () =
  let rng = Rng.create 6 in
  let psi = SV.random_state rng 2 in
  let a = SV.run (circuit 2 [ Gate.Two (Gate.CP Float.pi, 0, 1) ]) psi in
  let b = SV.run (circuit 2 [ Gate.Two (Gate.CZ, 0, 1) ]) psi in
  checkb "CP(pi) = CZ" true (SV.approx_equal a b)

let test_swap_gate () =
  (* |01> -> |10> *)
  let s =
    SV.run_from_zero (circuit 2 [ Gate.One (Gate.X, 0); Gate.Two (Gate.SWAP, 0, 1) ])
  in
  checkf "swapped" 1. (fst (SV.amplitude s 2))

let test_swap_is_3cx () =
  let rng = Rng.create 7 in
  let psi = SV.random_state rng 3 in
  let direct = SV.run (circuit 3 [ Gate.Two (Gate.SWAP, 0, 2) ]) psi in
  let expanded =
    SV.run (Circuit.expand_swaps (circuit 3 [ Gate.Two (Gate.SWAP, 0, 2) ])) psi
  in
  checkb "SWAP = CX CX CX" true (SV.approx_equal direct expanded)

let test_rzz_diagonal () =
  let rng = Rng.create 8 in
  let psi = SV.random_state rng 2 in
  (* RZZ commutes with CZ; and RZZ(0) is identity. *)
  let id0 = SV.run (circuit 2 [ Gate.Two (Gate.RZZ 0., 0, 1) ]) psi in
  checkb "RZZ(0) = id" true (SV.approx_equal id0 psi)

let test_rzz_symmetric () =
  let rng = Rng.create 9 in
  let psi = SV.random_state rng 2 in
  let a = SV.run (circuit 2 [ Gate.Two (Gate.RZZ 0.7, 0, 1) ]) psi in
  let b = SV.run (circuit 2 [ Gate.Two (Gate.RZZ 0.7, 1, 0) ]) psi in
  checkb "RZZ symmetric" true (SV.approx_equal a b)

let test_permute_qubits_identity () =
  let rng = Rng.create 10 in
  let psi = SV.random_state rng 3 in
  checkb "identity relabel" true
    (SV.approx_equal psi (SV.permute_qubits psi [| 0; 1; 2 |]))

let test_permute_qubits_matches_swap () =
  let rng = Rng.create 11 in
  let psi = SV.random_state rng 2 in
  let by_gate = SV.run (circuit 2 [ Gate.Two (Gate.SWAP, 0, 1) ]) psi in
  let by_relabel = SV.permute_qubits psi [| 1; 0 |] in
  checkb "relabel = swap gate" true (SV.approx_equal by_gate by_relabel);
  (* A circuit with its wires renamed by [p] runs as the original does
     between two relabelings by [p]. *)
  let p = [| 1; 2; 0 |] in
  let c =
    circuit 3
      [ Gate.One (Gate.H, 0); Gate.Two (Gate.CX, 0, 1); Gate.One (Gate.T, 2) ]
  in
  let renamed = Circuit.map_qubits (fun q -> p.(q)) c in
  List.iter
    (fun psi ->
      checkb "renamed wires = relabeled run" true
        (SV.approx_equal
           (SV.run renamed (SV.permute_qubits psi p))
           (SV.permute_qubits (SV.run c psi) p)))
    (List.init 8 (SV.basis_state 3) @ [ SV.random_state rng 3 ])

let test_permute_qubits_composition () =
  let rng = Rng.create 12 in
  let psi = SV.random_state rng 4 in
  let p = [| 2; 0; 3; 1 |] in
  let q = [| 1; 3; 0; 2 |] in
  let a = SV.permute_qubits (SV.permute_qubits psi p) q in
  let b = SV.permute_qubits psi (Perm.compose p q) in
  checkb "relabel composes" true (SV.approx_equal a b)

let test_fidelity_global_phase () =
  let rng = Rng.create 13 in
  let psi = SV.random_state rng 2 in
  (* Z on a basis state only adds phases; fidelity with itself is 1. *)
  checkf "self fidelity" 1. (SV.fidelity psi psi);
  (* Z = e^{iπ/2} Rz(π): equal up to phase on every input; Z and X not. *)
  let gate g phi = SV.run (circuit 1 [ Gate.One (g, 0) ]) phi in
  let random = SV.random_state rng 1 in
  List.iter
    (fun phi ->
      checkf "Z ~ Rz(pi)" 1.
        (SV.fidelity (gate Gate.Z phi) (gate (Gate.Rz Float.pi) phi)))
    [ SV.basis_state 1 0; SV.basis_state 1 1; random ];
  checkb "Z <> X" true
    (SV.fidelity (gate Gate.Z random) (gate Gate.X random) < 0.99)

let test_random_state_normalized () =
  let rng = Rng.create 14 in
  for n = 1 to 6 do
    checkf "norm 1" 1. (SV.norm (SV.random_state rng n))
  done

let test_gates_preserve_norm () =
  let rng = Rng.create 15 in
  let psi = SV.random_state rng 3 in
  let gates =
    [ Gate.One (Gate.H, 0); Gate.One (Gate.Rx 0.3, 1); Gate.One (Gate.Ry 0.9, 2);
      Gate.Two (Gate.CX, 0, 2); Gate.Two (Gate.CP 0.4, 1, 2);
      Gate.Two (Gate.RZZ 0.8, 0, 1); Gate.Two (Gate.SWAP, 1, 2) ]
  in
  let out = SV.run (circuit 3 gates) psi in
  checkf "unitary evolution" 1. (SV.norm out);
  List.iter
    (fun c ->
      let n = Circuit.num_qubits c in
      List.iter
        (fun psi -> checkf "library circuit" 1. (SV.norm (SV.run c psi)))
        (List.init (1 lsl n) (SV.basis_state n)
        @ List.init 4 (fun _ -> SV.random_state rng n)))
    [ Library.qft 4; Library.ghz 5;
      Library.ising_trotter_2d (Grid.make ~rows:2 ~cols:2) ~steps:2 ~theta:0.7;
      Library.random_two_qubit (Rng.create 1) ~num_qubits:5 ~gates:20 ]

(* --------------------------------------------------------------- Permsim *)

let test_permsim_trace_length () =
  let s = Schedule.of_layers [ [| (0, 1) |]; [| (1, 2) |] ] in
  checki "depth+1 snapshots" 3 (List.length (Permsim.trace ~n:3 s))

let test_permsim_final () =
  let s = Schedule.of_layers [ [| (0, 1) |] ] in
  Alcotest.check Alcotest.(array int) "tokens swapped" [| 1; 0; 2 |]
    (Permsim.final ~n:3 s)

let test_permsim_realized_matches_apply () =
  let rng = Rng.create 16 in
  let grid = Grid.make ~rows:3 ~cols:4 in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 12) in
    let s = Qr_route.Local_grid_route.route grid pi in
    checkb "permsim agrees with Schedule.apply" true
      (Perm.equal (Permsim.realized ~n:12 s) (Schedule.apply ~n:12 s));
    checkb "and equals pi" true (Perm.equal (Permsim.realized ~n:12 s) pi)
  done

let test_permsim_max_travel () =
  let grid = Grid.make ~rows:1 ~cols:3 in
  let oracle = Distance.of_grid grid in
  (* Token 0 moves two steps right: travel 2. *)
  let s = Schedule.of_layers [ [| (0, 1) |]; [| (1, 2) |] ] in
  checki "travel" 2 (Permsim.max_token_travel oracle ~n:3 s)

let test_permsim_travel_at_least_displacement () =
  let rng = Rng.create 17 in
  let grid = Grid.make ~rows:4 ~cols:4 in
  let oracle = Distance.of_grid grid in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 16) in
    let s =
      Qr_route.Router_intf.route_grid
        (Qr_route.Router_registry.get "naive")
        grid pi
    in
    let travel = Permsim.max_token_travel oracle ~n:16 s in
    let disp = Perm.max_distance (fun u v -> Distance.dist oracle u v) pi in
    checkb "travel >= displacement" true (travel >= disp)
  done

let () =
  Alcotest.run "qr_sim"
    [
      ( "statevector",
        [
          Alcotest.test_case "zero state" `Quick test_zero_state;
          Alcotest.test_case "X flips" `Quick test_x_flips;
          Alcotest.test_case "X on q1" `Quick test_x_on_second_qubit;
          Alcotest.test_case "H superposition" `Quick test_h_superposition;
          Alcotest.test_case "HH = id" `Quick test_hh_is_identity;
          Alcotest.test_case "involutions" `Quick test_xx_yy_zz_ss_tt_identities;
          Alcotest.test_case "S = TT" `Quick test_s_equals_tt;
          Alcotest.test_case "Rz composes" `Quick test_rotation_composition;
          Alcotest.test_case "HZH = X" `Quick test_h_z_h_is_x;
          Alcotest.test_case "CX action" `Quick test_cx_action;
          Alcotest.test_case "CX control 0" `Quick test_cx_control_zero_noop;
          Alcotest.test_case "Bell state" `Quick test_bell_state;
          Alcotest.test_case "GHZ" `Quick test_ghz_probabilities;
          Alcotest.test_case "CZ symmetric" `Quick test_cz_symmetric;
          Alcotest.test_case "CP(pi) = CZ" `Quick test_cp_pi_is_cz;
          Alcotest.test_case "SWAP" `Quick test_swap_gate;
          Alcotest.test_case "SWAP = 3CX" `Quick test_swap_is_3cx;
          Alcotest.test_case "RZZ(0) = id" `Quick test_rzz_diagonal;
          Alcotest.test_case "RZZ symmetric" `Quick test_rzz_symmetric;
          Alcotest.test_case "relabel identity" `Quick test_permute_qubits_identity;
          Alcotest.test_case "relabel = swap" `Quick test_permute_qubits_matches_swap;
          Alcotest.test_case "relabel composes" `Quick
            test_permute_qubits_composition;
          Alcotest.test_case "fidelity" `Quick test_fidelity_global_phase;
          Alcotest.test_case "random normalized" `Quick test_random_state_normalized;
          Alcotest.test_case "norm preserved" `Quick test_gates_preserve_norm;
        ] );
      ( "permsim",
        [
          Alcotest.test_case "trace length" `Quick test_permsim_trace_length;
          Alcotest.test_case "final" `Quick test_permsim_final;
          Alcotest.test_case "matches apply" `Quick
            test_permsim_realized_matches_apply;
          Alcotest.test_case "max travel" `Quick test_permsim_max_travel;
          Alcotest.test_case "travel >= displacement" `Quick
            test_permsim_travel_at_least_displacement;
        ] );
    ]
