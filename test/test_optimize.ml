(* Tests for the peephole optimizer, the umbrella's partial-routing entry
   point, and transpiling from a given or placed initial layout. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let circuit n gates = Circuit.create ~num_qubits:n gates

let equivalent c1 c2 seed =
  let n = Circuit.num_qubits c1 in
  let psi = Statevector.random_state (Rng.create seed) n in
  Statevector.approx_equal (Statevector.run c1 psi) (Statevector.run c2 psi)

(* ---------------------------------------------------------------- Optimize *)

let test_optimize_cancels_double_swap () =
  let c = circuit 3 [ Gate.Two (Gate.SWAP, 0, 1); Gate.Two (Gate.SWAP, 1, 0) ] in
  checki "everything cancels" 0 (Circuit.size (Optimize.run c))

let test_optimize_cancels_double_cx_same_orientation () =
  let c = circuit 2 [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 0, 1) ] in
  checki "cancels" 0 (Circuit.size (Optimize.run c))

let test_optimize_keeps_flipped_cx () =
  let c = circuit 2 [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 1, 0) ] in
  checki "different orientation is kept" 2 (Circuit.size (Optimize.run c))

let test_optimize_fuses_rotations () =
  let c =
    circuit 1 [ Gate.One (Gate.Rz 0.25, 0); Gate.One (Gate.Rz 0.5, 0) ]
  in
  (match Circuit.gates (Optimize.run c) with
  | [ Gate.One (Gate.Rz a, 0) ] ->
      Alcotest.check (Alcotest.float 1e-12) "fused" 0.75 a
  | _ -> Alcotest.fail "expected one fused Rz")

let test_optimize_fused_zero_vanishes () =
  let c =
    circuit 1 [ Gate.One (Gate.Rz 0.25, 0); Gate.One (Gate.Rz (-0.25), 0) ]
  in
  checki "vanishes" 0 (Circuit.size (Optimize.run c))

let test_optimize_drops_zero_rotation () =
  let c = circuit 2 [ Gate.Two (Gate.CP 0., 0, 1); Gate.One (Gate.H, 0) ] in
  checki "only H left" 1 (Circuit.size (Optimize.run c))

let test_optimize_commutes_past_disjoint () =
  (* H on qubit 2 sits between the two SWAPs but shares no qubit: the
     SWAPs must still cancel. *)
  let c =
    circuit 3
      [ Gate.Two (Gate.SWAP, 0, 1); Gate.One (Gate.H, 2);
        Gate.Two (Gate.SWAP, 0, 1) ]
  in
  checki "swaps cancel across disjoint gate" 1 (Circuit.size (Optimize.run c))

let test_optimize_blocked_by_shared_qubit () =
  (* X on qubit 0 between the SWAPs touches them: no cancellation. *)
  let c =
    circuit 2
      [ Gate.Two (Gate.SWAP, 0, 1); Gate.One (Gate.X, 0);
        Gate.Two (Gate.SWAP, 0, 1) ]
  in
  checki "kept" 3 (Circuit.size (Optimize.run c))

let test_optimize_chain_to_fixed_point () =
  (* X X X X collapses completely (needs iteration). *)
  let c = circuit 1 (List.init 4 (fun _ -> Gate.One (Gate.X, 0))) in
  checki "chain gone" 0 (Circuit.size (Optimize.run c))

let test_optimize_s_sdg_t_tdg () =
  let c =
    circuit 1
      [ Gate.One (Gate.S, 0); Gate.One (Gate.Sdg, 0); Gate.One (Gate.T, 0);
        Gate.One (Gate.Tdg, 0) ]
  in
  checki "all cancel" 0 (Circuit.size (Optimize.run c))

let test_optimize_symmetric_operand_order () =
  let c = circuit 2 [ Gate.Two (Gate.CZ, 0, 1); Gate.Two (Gate.CZ, 1, 0) ] in
  checki "CZ symmetric cancel" 0 (Circuit.size (Optimize.run c))

let test_optimize_preserves_semantics_random () =
  let rng = Rng.create 3 in
  for seed = 0 to 9 do
    (* Random circuits over the rewrite-prone gate set. *)
    let gate k =
      let q = Rng.int rng 4 in
      let q' = (q + 1 + Rng.int rng 3) mod 4 in
      match k mod 6 with
      | 0 -> Gate.One (Gate.H, q)
      | 1 -> Gate.One (Gate.Rz (Rng.float rng 1.), q)
      | 2 -> Gate.Two (Gate.CX, q, q')
      | 3 -> Gate.Two (Gate.SWAP, q, q')
      | 4 -> Gate.One (Gate.X, q)
      | _ -> Gate.Two (Gate.CP (Rng.float rng 1.), q, q')
    in
    let c = circuit 4 (List.init 40 gate) in
    let optimized = Optimize.run c in
    checkb "unitary equivalent" true (equivalent c optimized seed);
    checkb "never grows" true (Circuit.size optimized <= Circuit.size c)
  done

let test_optimize_on_transpiled_circuit () =
  let grid = Grid.make ~rows:2 ~cols:3 in
  let result = transpile grid (Library.qft 6) in
  let optimized = Optimize.run result.physical in
  checkb "still feasible" true (Circuit.is_feasible (Grid.graph grid) optimized);
  checkb "equivalent" true (equivalent result.physical optimized 5);
  checkb "no growth" true
    (Circuit.size optimized <= Circuit.size result.physical)

let optimize_idempotent =
  QCheck.Test.make ~name:"optimize is idempotent" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let gate _ =
        let q = Rng.int rng 3 in
        let q' = (q + 1 + Rng.int rng 2) mod 3 in
        match Rng.int rng 4 with
        | 0 -> Gate.One (Gate.H, q)
        | 1 -> Gate.One (Gate.Rz 0.5, q)
        | 2 -> Gate.Two (Gate.CX, q, q')
        | _ -> Gate.Two (Gate.SWAP, q, q')
      in
      let c = circuit 3 (List.init 20 gate) in
      let once = Optimize.run c in
      Circuit.equal once (Optimize.run once))

(* -------------------------------------------------------- route_partial *)

let test_route_partial_honors_constraints () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let partial =
    Partial_perm.make ~n:16
      [ (Grid.index grid 0 0, Grid.index grid 3 3);
        (Grid.index grid 3 3, Grid.index grid 0 0) ]
  in
  let sched, extension = route_partial grid partial in
  checkb "constraints in extension" true
    (extension.(Grid.index grid 0 0) = Grid.index grid 3 3);
  checkb "schedule realizes extension" true
    (Schedule.realizes ~n:16 sched extension)

let test_route_partial_default_policy_moves_little () =
  (* With one constrained pair, the min-total extension displaces at most
     the qubits on the direct path: unconstrained total displacement equals
     the constrained pair's length (the displaced chain). *)
  let grid = Grid.make ~rows:1 ~cols:6 in
  let partial = Partial_perm.make ~n:6 [ (0, 5) ] in
  let _, extension = route_partial grid partial in
  let unconstrained_cost =
    Partial_perm.total_distance (fun u v -> Grid.manhattan grid u v) partial
      extension
  in
  checkb "cheap completion" true (unconstrained_cost <= 5)

let test_route_partial_policies_differ_but_both_work () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let partial = Partial_perm.make ~n:9 [ (0, 8); (8, 4) ] in
  List.iter
    (fun policy ->
      let sched, extension = route_partial ~policy grid partial in
      checkb "valid extension" true (Perm.is_permutation extension);
      checkb "routed" true (Schedule.realizes ~n:9 sched extension))
    [ Partial_perm.Stay;
      Partial_perm.Greedy_nearest (fun u v -> Grid.manhattan grid u v) ]

(* ---------------------------------------------------- transpile ~initial *)

let test_transpile_with_placement () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let rng = Rng.create 17 in
  let c = Library.random_local_two_qubit rng ~grid ~radius:1 ~gates:30 in
  let initial =
    Placement.place ~graph:(Grid.graph grid) ~dist:(Distance.of_grid grid) c
  in
  let placed = transpile ~initial grid c in
  checkb "feasible" true (Transpile.verify_feasible (Grid.graph grid) placed);
  (* Placement must not be ignored: initial layout differs from identity
     in general, and the run is still correct. *)
  let psi = Statevector.random_state (Rng.create 1) 9 in
  let out_logical = Statevector.run c psi in
  let placed_in =
    Statevector.permute_qubits psi (Layout.to_phys_array placed.initial)
  in
  let out_phys = Statevector.run placed.physical placed_in in
  let back = Array.init 9 (fun v -> Layout.logical placed.final v) in
  checkb "equivalent" true
    (Statevector.approx_equal out_logical
       (Statevector.permute_qubits out_phys back))

let test_transpile_explicit_initial () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let c = Circuit.create ~num_qubits:4 [ Gate.Two (Gate.CX, 0, 1) ] in
  let initial = Layout.of_phys_of_logical [| 3; 2; 1; 0 |] in
  let r = transpile ~initial grid c in
  checkb "explicit layout respected" true (Layout.equal r.initial initial)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "optimize"
    [
      ( "optimize",
        [
          Alcotest.test_case "double swap" `Quick test_optimize_cancels_double_swap;
          Alcotest.test_case "double cx" `Quick
            test_optimize_cancels_double_cx_same_orientation;
          Alcotest.test_case "flipped cx kept" `Quick test_optimize_keeps_flipped_cx;
          Alcotest.test_case "fuse rotations" `Quick test_optimize_fuses_rotations;
          Alcotest.test_case "fused zero" `Quick test_optimize_fused_zero_vanishes;
          Alcotest.test_case "drop zero rotation" `Quick
            test_optimize_drops_zero_rotation;
          Alcotest.test_case "commutes past disjoint" `Quick
            test_optimize_commutes_past_disjoint;
          Alcotest.test_case "blocked by shared" `Quick
            test_optimize_blocked_by_shared_qubit;
          Alcotest.test_case "fixed point chain" `Quick
            test_optimize_chain_to_fixed_point;
          Alcotest.test_case "s/t inverses" `Quick test_optimize_s_sdg_t_tdg;
          Alcotest.test_case "symmetric operands" `Quick
            test_optimize_symmetric_operand_order;
          Alcotest.test_case "random semantics" `Quick
            test_optimize_preserves_semantics_random;
          Alcotest.test_case "transpiled circuit" `Quick
            test_optimize_on_transpiled_circuit;
          qc optimize_idempotent;
        ] );
      ( "route_partial",
        [
          Alcotest.test_case "honors constraints" `Quick
            test_route_partial_honors_constraints;
          Alcotest.test_case "cheap completion" `Quick
            test_route_partial_default_policy_moves_little;
          Alcotest.test_case "all policies" `Quick
            test_route_partial_policies_differ_but_both_work;
        ] );
      ( "placement transpile",
        [
          Alcotest.test_case "place:true" `Quick test_transpile_with_placement;
          Alcotest.test_case "explicit wins" `Quick
            test_transpile_explicit_initial;
        ] );
    ]
