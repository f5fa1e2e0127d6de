(* Quickstart: route one permutation on a grid and inspect the schedule.

   Run with:  dune exec examples/quickstart.exe *)

open Qroute

let () =
  (* A 4x4 grid device: 16 physical qubits, nearest-neighbour coupling. *)
  let grid = Grid.make ~rows:4 ~cols:4 in

  (* A permutation to realize: reverse the whole grid (every qubit must
     travel to the antipodal position — the hardest involution). *)
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  Format.printf "destination map:@.%a@." (Grid_perm.pp grid) pi;

  (* Route it with the paper's locality-aware algorithm (Algorithm 1). *)
  let sched = route ~engine:"local" grid pi in
  Printf.printf "locality-aware: depth %d, %d swaps\n"
    (Schedule.depth sched) (Schedule.size sched);

  (* Every layer is a matching of the grid; the whole schedule provably
     realizes pi — check both explicitly. *)
  assert (Schedule.is_valid (Grid.graph grid) sched);
  assert (Schedule.realizes ~n:(Grid.size grid) sched pi);

  (* Watch the tokens move, layer by layer. *)
  List.iteri
    (fun step snapshot ->
      Format.printf "@.after layer %d:@.%a" step
        (Permsim.pp_grid_snapshot grid) snapshot)
    (Permsim.trace ~n:(Grid.size grid) sched);

  (* Compare against the approximate-token-swapping baseline. *)
  let ats = route ~engine:"ats" grid pi in
  Printf.printf "@.token swapping: depth %d, %d swaps\n"
    (Schedule.depth ats) (Schedule.size ats)
