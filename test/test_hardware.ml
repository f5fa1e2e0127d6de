(* Tests for the hardware-flavoured additions: exact equivalence of a
   transpiled circuit, non-grid topologies (heavy-hex, Falcon-27), annealed
   placement. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------ Equivalence *)

let test_transpiled_qft_exact () =
  (* The strongest end-to-end statement: transpiled QFT's unitary equals
     the logical QFT's unitary after relabeling by the layouts. *)
  let grid = Grid.make ~rows:2 ~cols:3 in
  let logical = Library.qft 6 in
  let result = transpile grid logical in
  (* Every basis state, layout relabelings included, and random
     superpositions: fidelity ignores each state's phase, so only a
     superposition sees a phase that differs between basis states. *)
  let n = 6 in
  let rng = Rng.create 5 in
  let inputs =
    List.init (1 lsl n) (Statevector.basis_state n)
    @ List.init 4 (fun _ -> Statevector.random_state rng n)
  in
  let back = Array.init n (fun v -> Layout.logical result.final v) in
  let exact psi =
    let out_logical = Statevector.run logical psi in
    let placed =
      Statevector.permute_qubits psi (Layout.to_phys_array result.initial)
    in
    let out_phys = Statevector.run result.physical placed in
    Statevector.approx_equal out_logical
      (Statevector.permute_qubits out_phys back)
  in
  checkb "exact on basis states and superpositions" true
    (List.for_all exact inputs)

(* --------------------------------------------------------------- Topology *)

let test_heavy_hex_structure () =
  let hh = Topology.heavy_hex ~rows:3 ~cols:5 in
  checkb "connected" true (Graph.is_connected hh.graph);
  checkb "max degree 3" true (Graph.max_degree hh.graph <= 3);
  checki "row qubits first" 15 (hh.data_rows * hh.row_length);
  List.iter
    (fun (bridge, upper, lower) ->
      checki "bridge degree 2" 2 (Graph.degree hh.graph bridge);
      checkb "bridge edges exist" true
        (Graph.mem_edge hh.graph bridge upper
        && Graph.mem_edge hh.graph bridge lower))
    hh.bridges

let test_heavy_hex_small () =
  let hh = Topology.heavy_hex ~rows:2 ~cols:1 in
  checkb "still connected" true (Graph.is_connected hh.graph)

let test_heavy_hex_routable () =
  let hh = Topology.heavy_hex ~rows:3 ~cols:4 in
  let g = hh.graph in
  let n = Graph.num_vertices g in
  let oracle = Distance.of_graph g in
  let rng = Rng.create 3 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng n) in
    let sched = Parallel_ats.route ~trials:1 g oracle pi in
    checkb "valid" true (Schedule.is_valid g sched);
    checkb "realizes" true (Schedule.realizes ~n sched pi)
  done

let test_falcon_27 () =
  let g = Topology.ibm_falcon_27 () in
  checki "qubits" 27 (Graph.num_vertices g);
  checki "couplers" 28 (Graph.num_edges g);
  checkb "connected" true (Graph.is_connected g);
  checkb "max degree 3" true (Graph.max_degree g <= 3)

let test_falcon_transpile () =
  let g = Topology.ibm_falcon_27 () in
  let oracle = Distance.of_graph g in
  let rng = Rng.create 4 in
  let c = Library.random_two_qubit rng ~num_qubits:27 ~gates:60 in
  let r = Sabre_lite.run ~graph:g ~dist:oracle c in
  checkb "feasible on falcon" true (Circuit.is_feasible g r.physical);
  checki "gates preserved" (Circuit.size c)
    (Circuit.size r.physical - Circuit.swap_count r.physical)

let test_ladder () =
  let g = Topology.ladder 5 in
  checki "vertices" 10 (Graph.num_vertices g);
  checki "edges" 13 (Graph.num_edges g)

(* --------------------------------------------------------------- Annealing *)

let test_anneal_never_worse () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let dist = Distance.of_grid grid in
  let rng = Rng.create 5 in
  for seed = 0 to 4 do
    let c = Library.random_local_two_qubit rng ~grid ~radius:2 ~gates:40 in
    let start = Layout.random (Rng.create (70 + seed)) 16 in
    let annealed =
      Placement.anneal ~iterations:2000 ~rng:(Rng.create seed) ~dist c start
    in
    checkb "valid layout" true
      (Perm.is_permutation (Layout.to_phys_array annealed));
    checkb "cost never worse" true
      (Placement.placement_cost ~dist c annealed
      <= Placement.placement_cost ~dist c start)
  done

let test_anneal_improves_greedy_or_ties () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let dist = Distance.of_grid grid in
  let rng = Rng.create 6 in
  let c = Library.random_local_two_qubit rng ~grid ~radius:1 ~gates:60 in
  let greedy = Placement.place ~graph:(Grid.graph grid) ~dist c in
  let refined =
    Placement.anneal ~iterations:5000 ~rng:(Rng.create 1) ~dist c greedy
  in
  checkb "refinement monotone" true
    (Placement.placement_cost ~dist c refined
    <= Placement.placement_cost ~dist c greedy)

let test_anneal_trivial_cases () =
  let grid = Grid.make ~rows:1 ~cols:1 in
  let dist = Distance.of_grid grid in
  let c = Circuit.create ~num_qubits:1 [] in
  let layout = Layout.identity 1 in
  let out = Placement.anneal ~iterations:10 ~rng:(Rng.create 0) ~dist c layout in
  checkb "singleton survives" true (Layout.equal out layout)

let () =
  Alcotest.run "hardware"
    [
      ( "unitary",
        [
          Alcotest.test_case "transpiled qft exact" `Quick
            test_transpiled_qft_exact;
        ] );
      ( "topology",
        [
          Alcotest.test_case "heavy-hex structure" `Quick test_heavy_hex_structure;
          Alcotest.test_case "heavy-hex small" `Quick test_heavy_hex_small;
          Alcotest.test_case "heavy-hex routable" `Quick test_heavy_hex_routable;
          Alcotest.test_case "falcon-27" `Quick test_falcon_27;
          Alcotest.test_case "falcon transpile" `Quick test_falcon_transpile;
          Alcotest.test_case "ladder" `Quick test_ladder;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "never worse" `Quick test_anneal_never_worse;
          Alcotest.test_case "refines greedy" `Quick
            test_anneal_improves_greedy_or_ties;
          Alcotest.test_case "trivial" `Quick test_anneal_trivial_cases;
        ] );
    ]
