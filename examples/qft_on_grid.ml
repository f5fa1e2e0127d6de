(* Transpile the quantum Fourier transform onto a 3x3 grid and verify the
   result exactly against a statevector simulation.

   The QFT is the paper's running example of routing pressure: it couples
   every qubit pair, so on a sparse grid nearly every slice needs SWAPs.

   Run with:  dune exec examples/qft_on_grid.exe *)

open Qroute

let report label circuit =
  Printf.printf "%-9s size %3d   depth %3d   two-qubit %3d   swaps %3d\n"
    label (Circuit.size circuit) (Circuit.depth circuit)
    (Circuit.two_qubit_count circuit)
    (Circuit.swap_count circuit)

let () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let logical = Library.qft (Grid.size grid) in
  report "logical" logical;

  (* Transpile with each routing engine and compare the inflation. *)
  List.iter
    (fun engine ->
      let result = transpile ~engine grid logical in
      assert (Transpile.verify_feasible (Grid.graph grid) result);
      report engine result.physical)
    [ "local"; "naive"; "ats" ];

  (* Exact verification: the physical circuit, run from a random state
     placed by the initial layout and read back through the final layout,
     must match the logical circuit on the nose. *)
  let result = transpile grid logical in
  let n = Grid.size grid in
  let psi = Statevector.random_state (Rng.create 7) n in
  let out_logical = Statevector.run logical psi in
  let placed = Statevector.permute_qubits psi (Layout.to_phys_array result.initial) in
  let out_physical = Statevector.run result.physical placed in
  let read_back =
    Statevector.permute_qubits out_physical
      (Array.init n (fun v -> Layout.logical result.final v))
  in
  Printf.printf "statevector fidelity (must be 1.0): %.12f\n"
    (Statevector.fidelity out_logical read_back);

  (* Cost in CNOTs for hardware without native SWAPs. *)
  let expanded = Circuit.expand_swaps result.physical in
  Printf.printf "after 3-CX swap expansion: size %d, depth %d\n"
    (Circuit.size expanded) (Circuit.depth expanded)
