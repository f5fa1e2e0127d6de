(* Simulating a spatially local Hamiltonian — the workload family the paper
   singles out as benefiting from locality-aware routing.

   A Trotter step of the transverse-field Ising model on the grid interacts
   only grid-neighbours, so the circuit itself is feasible.  Routing
   pressure appears when the transpiler starts from a *scrambled* layout
   (e.g. handed over from an earlier program phase): the router must bring
   qubits home, and the required permutation is exactly as local as the
   scrambling.  This example measures how the locality of that layout
   scrambling drives routing cost for each router.

   Run with:  dune exec examples/trotter_local.exe *)

open Qroute

let () =
  let grid = Grid.make ~rows:6 ~cols:6 in
  let n = Grid.size grid in
  let logical = Library.ising_trotter_2d grid ~steps:3 ~theta:0.2 in
  Printf.printf "Trotter circuit: %d qubits, %d gates, depth %d\n\n" n
    (Circuit.size logical) (Circuit.depth logical);

  Printf.printf "%-22s %-8s %8s %8s\n" "initial-layout class" "router" "swaps"
    "depth";
  let scramblings =
    [ ("identity (in place)", Generators.Identity);
      ("block-local 2x2", Generators.Block_local 2);
      ("block-local 3x3", Generators.Block_local 3);
      ("uniformly random", Generators.Random) ]
  in
  List.iter
    (fun (label, kind) ->
      let scramble = Generators.generate grid kind (Rng.create 1) in
      let initial = Layout.of_phys_of_logical scramble in
      List.iter
        (fun engine ->
          let result = transpile ~engine ~initial grid logical in
          assert (Transpile.verify_feasible (Grid.graph grid) result);
          Printf.printf "%-22s %-8s %8d %8d\n" label engine
            (Circuit.swap_count result.physical)
            (Circuit.depth result.physical))
        [ "local"; "ats" ])
    scramblings;

  (* The point the paper's intro makes: the more local the permutation the
     router faces, the cheaper the fix-up — and the locality-aware router
     exploits it.  Verify one scrambled case end-to-end on a smaller grid
     where exact simulation is tractable. *)
  let small = Grid.make ~rows:2 ~cols:4 in
  let logical_small = Library.ising_trotter_2d small ~steps:2 ~theta:0.2 in
  let initial =
    Layout.of_phys_of_logical
      (Generators.generate small (Generators.Block_local 2) (Rng.create 3))
  in
  let result = transpile ~initial small logical_small in
  let psi = Statevector.random_state (Rng.create 9) 8 in
  let out_logical = Statevector.run logical_small psi in
  let placed = Statevector.permute_qubits psi (Layout.to_phys_array initial) in
  let out_physical = Statevector.run result.physical placed in
  let read_back =
    Statevector.permute_qubits out_physical
      (Array.init 8 (fun v -> Layout.logical result.final v))
  in
  Printf.printf "\n2x4 exact check, fidelity (must be 1.0): %.12f\n"
    (Statevector.fidelity out_logical read_back)
