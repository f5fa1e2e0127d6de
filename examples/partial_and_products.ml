(* Don't-care routing and "grid-like" architectures — the two
   generalizations sketched in §II and §IV-C of the paper.

   Run with:  dune exec examples/partial_and_products.exe *)

open Qroute

let () =
  (* --- Part 1: partial permutations -------------------------------- *)
  (* Only two qubits have required destinations (say, the next gate needs
     them adjacent in the far corner); everything else is a don't-care. *)
  let grid = Grid.make ~rows:6 ~cols:6 in
  let n = Grid.size grid in
  let partial =
    Partial_perm.make ~n
      [ (Grid.index grid 0 0, Grid.index grid 5 4);
        (Grid.index grid 0 1, Grid.index grid 5 5) ]
  in
  Printf.printf "constrained qubits: %d of %d\n" (Partial_perm.constrained partial) n;
  let dist u v = Grid.manhattan grid u v in
  List.iter
    (fun (label, policy) ->
      let sched, extension = route_partial ~policy grid partial in
      Printf.printf
        "%-14s depth %2d  swaps %3d  collateral displacement %3d\n" label
        (Schedule.depth sched) (Schedule.size sched)
        (Partial_perm.total_distance dist partial extension))
    [ ("stay", Partial_perm.Stay);
      ("greedy", Partial_perm.Greedy_nearest dist);
      ("min-total", Partial_perm.Min_total dist) ];

  (* --- Part 2: Cartesian products ---------------------------------- *)
  (* A cylinder (cycle x path) — superconducting layouts with a ring bus.
     The same 3-round scheme routes it once we supply per-factor routers:
     odd-even for the path factor, parallel token swapping for the cycle. *)
  print_newline ();
  let cylinder = Product.make (Graph.cycle 6) (Graph.path 5) in
  let path_router g pi =
    assert (Graph.num_vertices g = Array.length pi);
    Path_route.route pi
  in
  let cycle_router g pi =
    Parallel_ats.route ~trials:1 g (Distance.of_graph g) pi
  in
  let pi =
    Perm.check (Rng.permutation (Rng.create 3) (Product.size cylinder))
  in
  let sched =
    Product_route.route ~route1:cycle_router ~route2:path_router cylinder pi
  in
  assert (Schedule.is_valid (Product.graph cylinder) sched);
  assert (Schedule.realizes ~n:(Product.size cylinder) sched pi);
  Printf.printf "cylinder C6 x P5: random permutation routed in depth %d (%d swaps)\n"
    (Schedule.depth sched) (Schedule.size sched);

  (* Reference point: the same instance on a plain 6x5 grid, handled by
     the specialized (and more optimized) grid router.  The generic product
     router pays for its generality — specializing the factor routers is
     exactly what the paper's grid algorithm does. *)
  let as_grid = Grid.make ~rows:6 ~cols:5 in
  let grid_sched = route as_grid pi in
  Printf.printf
    "same permutation, 6x5 grid, specialized router: depth %d (%d swaps)\n"
    (Schedule.depth grid_sched)
    (Schedule.size grid_sched);

  (* --- Part 3: how local is a workload? ----------------------------- *)
  print_newline ();
  let workloads = Generators.paper_kinds grid in
  List.iter
    (fun kind ->
      let sample = Generators.generate grid kind (Rng.create 1) in
      let stats = Perm_stats.compute grid sample in
      Format.printf "%-13s %a@." (Generators.name kind) Perm_stats.pp stats)
    workloads
