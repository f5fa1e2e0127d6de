(* Tests for the extension modules: Assignment (Hungarian), Partial_perm,
   Perm_stats, Bounds, the snake baseline, Noise, Placement. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------- Assignment *)

let test_assignment_identity_matrix () =
  let costs = [| [| 0; 9; 9 |]; [| 9; 0; 9 |]; [| 9; 9; 0 |] |] in
  let assignment, total = Assignment.solve ~costs in
  checki "total" 0 total;
  Alcotest.check Alcotest.(array int) "diagonal" [| 0; 1; 2 |] assignment

let test_assignment_antidiagonal () =
  let costs = [| [| 9; 1 |]; [| 1; 9 |] |] in
  let assignment, total = Assignment.solve ~costs in
  checki "total" 2 total;
  Alcotest.check Alcotest.(array int) "anti" [| 1; 0 |] assignment

let test_assignment_forced_expensive () =
  (* Greedy would take (0,0)=1 and then be forced into (1,1)=100;
     the optimum is 2+3=5. *)
  let costs = [| [| 1; 2 |]; [| 3; 100 |] |] in
  let _, total = Assignment.solve ~costs in
  checki "optimal" 5 total

let test_assignment_empty () =
  let assignment, total = Assignment.solve ~costs:[||] in
  checki "empty total" 0 total;
  checki "empty assignment" 0 (Array.length assignment)

let test_assignment_negative_costs () =
  let costs = [| [| -5; 0 |]; [| 0; -5 |] |] in
  let _, total = Assignment.solve ~costs in
  checki "negative total" (-10) total

let test_assignment_rejects_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Assignment.solve: matrix must be square") (fun () ->
      ignore (Assignment.solve ~costs:[| [| 1 |]; [| 1; 2 |] |]))

let assignment_matches_brute_force =
  QCheck.Test.make ~name:"hungarian = brute force" ~count:200
    QCheck.(pair (Arb.int_range 1 6) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let costs =
        Array.init n (fun _ -> Array.init n (fun _ -> Rng.int rng 50))
      in
      let assignment, total = Assignment.solve ~costs in
      let recomputed =
        Array.to_list (Array.mapi (fun i j -> costs.(i).(j)) assignment)
        |> List.fold_left ( + ) 0
      in
      Perm.is_permutation assignment
      && total = Assignment.brute_force ~costs
      && total = recomputed)

(* ------------------------------------------------------------ Partial_perm *)

let test_partial_make_validates () =
  Alcotest.check_raises "dup src"
    (Invalid_argument "Partial_perm.make: duplicate source") (fun () ->
      ignore (Partial_perm.make ~n:4 [ (0, 1); (0, 2) ]));
  Alcotest.check_raises "dup dst"
    (Invalid_argument "Partial_perm.make: duplicate destination") (fun () ->
      ignore (Partial_perm.make ~n:4 [ (0, 1); (2, 1) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Partial_perm.make: value out of range") (fun () ->
      ignore (Partial_perm.make ~n:4 [ (0, 7) ]))

let test_partial_accessors () =
  let p = Partial_perm.make ~n:5 [ (2, 0); (0, 3) ] in
  checki "size" 5 (Partial_perm.size p);
  checki "constrained" 2 (Partial_perm.constrained p);
  checkb "not total" false (Partial_perm.is_total p);
  Alcotest.check
    Alcotest.(list (pair int int))
    "sorted pairs" [ (0, 3); (2, 0) ] (Partial_perm.pairs p)

let test_partial_of_perm_total () =
  let p = Partial_perm.of_perm [| 1; 0; 2 |] in
  checkb "total" true (Partial_perm.is_total p)

let grid5 = Grid.make ~rows:1 ~cols:5
let dist5 u v = Grid.manhattan grid5 u v

let test_partial_extend_honors_constraints () =
  let partial = Partial_perm.make ~n:5 [ (0, 4); (4, 0) ] in
  List.iter
    (fun policy ->
      let perm = Partial_perm.extend policy partial in
      checkb "permutation" true (Perm.is_permutation perm);
      checki "0 -> 4" 4 perm.(0);
      checki "4 -> 0" 0 perm.(4))
    [ Partial_perm.Stay; Partial_perm.Greedy_nearest dist5;
      Partial_perm.Min_total dist5 ]

let test_partial_stay_keeps_free () =
  let partial = Partial_perm.make ~n:5 [ (0, 4) ] in
  let perm = Partial_perm.extend Partial_perm.Stay partial in
  checki "1 stays" 1 perm.(1);
  checki "2 stays" 2 perm.(2);
  checki "3 stays" 3 perm.(3);
  (* destination 4 is taken, vertex 4 takes the leftover 0 *)
  checki "4 displaced to 0" 0 perm.(4)

let test_partial_min_total_is_optimal () =
  (* Brute-force the minimal unconstrained displacement on small grids. *)
  let grid = Grid.make ~rows:2 ~cols:3 in
  let dist u v = Grid.manhattan grid u v in
  let rng = Rng.create 5 in
  for _ = 1 to 25 do
    (* Random partial constraint on 2 sources. *)
    let srcs = Rng.sample_distinct rng 2 6 in
    let dsts = Rng.sample_distinct rng 2 6 in
    let partial = Partial_perm.make ~n:6 (List.combine srcs dsts) in
    let opt = Partial_perm.extend (Partial_perm.Min_total dist) partial in
    let opt_cost = Partial_perm.total_distance dist partial opt in
    (* Exhaustive check over all extensions. *)
    let free_sources =
      List.filter (fun v -> not (List.mem v srcs)) [ 0; 1; 2; 3; 4; 5 ]
    in
    let free_dests =
      List.filter (fun v -> not (List.mem v dsts)) [ 0; 1; 2; 3; 4; 5 ]
    in
    let rec all_assignments sources dests =
      match sources with
      | [] -> [ [] ]
      | s :: rest ->
          List.concat_map
            (fun d ->
              let remaining = List.filter (fun x -> x <> d) dests in
              List.map (fun tail -> (s, d) :: tail)
                (all_assignments rest remaining))
            dests
    in
    let brute =
      List.fold_left
        (fun acc assignment ->
          let cost =
            List.fold_left (fun c (s, d) -> c + dist s d) 0 assignment
          in
          min acc cost)
        max_int
        (all_assignments free_sources free_dests)
    in
    checki "min-total matches brute force" brute opt_cost
  done

let test_partial_greedy_no_worse_than_stay_on_line () =
  let rng = Rng.create 6 in
  for _ = 1 to 20 do
    let src = Rng.int rng 5 and dst = Rng.int rng 5 in
    let partial = Partial_perm.make ~n:5 [ (src, dst) ] in
    let greedy = Partial_perm.extend (Partial_perm.Greedy_nearest dist5) partial in
    let stay = Partial_perm.extend Partial_perm.Stay partial in
    checkb "greedy <= stay (total unconstrained distance)" true
      (Partial_perm.total_distance dist5 partial greedy
      <= Partial_perm.total_distance dist5 partial stay)
  done

let partial_extension_property =
  QCheck.Test.make ~name:"all extension policies honor constraints" ~count:200
    QCheck.(pair (Arb.int_range 1 10) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let k = Rng.int rng (n + 1) in
      let srcs = Rng.sample_distinct rng k n in
      let dsts = Rng.sample_distinct rng k n in
      let pairs = List.combine srcs dsts in
      let partial = Partial_perm.make ~n pairs in
      let dist u v = abs (u - v) in
      List.for_all
        (fun policy ->
          let perm = Partial_perm.extend policy partial in
          Perm.is_permutation perm
          && List.for_all (fun (s, d) -> perm.(s) = d) pairs)
        [ Partial_perm.Stay; Partial_perm.Greedy_nearest dist;
          Partial_perm.Min_total dist ])

(* -------------------------------------------------------------- Perm_stats *)

let test_stats_identity () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let s = Perm_stats.compute grid (Perm.identity 9) in
  checki "displaced" 0 s.displaced;
  checki "cycles" 0 s.cycles;
  checki "longest" 0 s.longest_cycle;
  checki "total" 0 s.total_displacement

let test_stats_reversal () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  let s = Perm_stats.compute grid pi in
  checki "all displaced" 4 s.displaced;
  checki "two 2-cycles" 2 s.cycles;
  checki "max displacement" 2 s.max_displacement;
  checki "total" 8 s.total_displacement;
  checkf "mean" 2. s.mean_displacement

let test_stats_histogram () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let h = Perm_stats.displacement_histogram grid (Perm.identity 4) in
  checki "all at zero" 4 h.(0);
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  let h = Perm_stats.displacement_histogram grid pi in
  checki "all at diameter" 4 h.(2);
  checki "histogram sums to n" 4 (Array.fold_left ( + ) 0 h)

let test_stats_bounding_boxes () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  (* A 2-cycle confined to the top-left 2x2 tile. *)
  let pi = Perm.of_cycles 16 [ [ Grid.index grid 0 0; Grid.index grid 1 1 ] ] in
  (match Perm_stats.cycle_bounding_boxes grid pi with
  | [ (h, w) ] ->
      checki "height" 2 h;
      checki "width" 2 w
  | _ -> Alcotest.fail "expected one cycle");
  (* A long skinny horizontal cycle. *)
  let skinny = Perm.of_cycles 16 (
    [ List.init 4 (fun c -> Grid.index grid 0 c) ]) in
  match Perm_stats.cycle_bounding_boxes grid skinny with
  | [ (h, w) ] ->
      checki "thin" 1 h;
      checki "long" 4 w
  | _ -> Alcotest.fail "expected one cycle"

let test_stats_block_local_boxes_small () =
  let grid = Grid.make ~rows:8 ~cols:8 in
  let pi = Generators.generate grid (Generators.Block_local 2) (Rng.create 3) in
  List.iter
    (fun (h, w) ->
      checkb "boxes inside 2x2 tiles" true (h <= 2 && w <= 2))
    (Perm_stats.cycle_bounding_boxes grid pi)

(* ------------------------------------------------------------------ Bounds *)

let test_bounds_identity () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  checki "identity free" 0 (Bounds.depth_lower_bound grid (Perm.identity 16))

let test_bounds_reversal () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  (* displacement bound: corner to corner = 6 *)
  checkb "at least displacement" true (Bounds.depth_lower_bound grid pi >= 6)

let test_bounds_cut () =
  let grid = Grid.make ~rows:2 ~cols:4 in
  (* Swap the left and right halves: 4 tokens must cross the central cut of
     width 2 in each direction -> depth >= 2. *)
  let pi =
    Grid_perm.of_coord_map grid (fun (r, c) -> (r, (c + 2) mod 4))
  in
  checkb "cut bound" true (Bounds.grid_cut_bound grid pi >= 2)

let test_routers_respect_bounds () =
  let grid = Grid.make ~rows:5 ~cols:6 in
  let rng = Rng.create 7 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 30) in
    let lb = Bounds.depth_lower_bound grid pi in
    List.iter
      (fun engine ->
        let depth = Schedule.depth (route ~engine grid pi) in
        checkb (engine ^ " >= lower bound") true (depth >= lb))
      (Router_registry.names ())
  done

let test_size_bound_respected () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let dist u v = Grid.manhattan grid u v in
  let rng = Rng.create 8 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 16) in
    let lb = Bounds.size_lower_bound dist pi in
    List.iter
      (fun engine ->
        let size = Schedule.size (route ~engine grid pi) in
        checkb (engine ^ " size >= bound") true (size >= lb))
      (Router_registry.names ())
  done

(* ------------------------------------------------------------------ Snake *)

let test_snake_order_adjacent () =
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let order = Path_route.snake_order grid in
      checkb "is permutation" true (Perm.is_permutation order);
      for k = 0 to Array.length order - 2 do
        checkb "consecutive adjacency" true
          (Graph.mem_edge (Grid.graph grid) order.(k) order.(k + 1))
      done)
    [ (1, 5); (5, 1); (3, 4); (4, 3); (2, 2) ]

let test_snake_routes_correctly () =
  let rng = Rng.create 9 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      for _ = 1 to 5 do
        let pi = Perm.check (Rng.permutation rng (m * n)) in
        let s = Path_route.route_snake grid pi in
        checkb "valid" true (Schedule.is_valid (Grid.graph grid) s);
        checkb "realizes" true (Schedule.realizes ~n:(m * n) s pi)
      done)
    [ (1, 6); (3, 3); (4, 5) ]

(* The snake engine is Path_route.route_snake, and on a 1xN or Nx1 grid
   the snake IS the path: the schedule is the path router's, relabelled
   through the snake order. *)
let test_snake_on_line_equals_path_router () =
  let rng = Rng.create 10 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let order = Path_route.snake_order grid in
      for _ = 1 to 10 do
        let pi = Perm.check (Rng.permutation rng (m * n)) in
        let snake = route ~engine:"snake" grid pi in
        checkb "engine = route_snake" true
          (snake = Path_route.route_snake grid pi);
        if m = 1 || n = 1 then
          checkb "snake = path router" true
            (snake
            = Schedule.map_vertices (fun p -> order.(p)) (Path_route.route pi))
      done)
    [ (1, 8); (8, 1); (1, 1); (3, 4); (5, 2) ]

(* The endpoint array [route] fills is relabelled in place, so a route
   allocates it once: a 32x32 route has 262,588 swaps, and an array of
   that size goes straight to the major heap.  Relabelling a copy
   allocated 1,062,606 direct major words, twice the array's 525,176. *)
let test_snake_one_endpoint_array () =
  let grid = Grid.make ~rows:32 ~cols:32 in
  let pi = Generators.generate grid Generators.Random (Rng.create 1) in
  ignore (Path_route.route_snake grid pi);
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct_major () in
  let s = Path_route.route_snake grid pi in
  let words = direct_major () -. before in
  let array_words = float_of_int (2 * Schedule.size s) in
  checkb
    (Printf.sprintf "%.0f direct major words <= 1.1 x %.0f" words array_words)
    true
    (words <= 1.1 *. array_words)

let test_snake_much_deeper_on_square () =
  (* The whole point: 1-D embedding wastes the second dimension. *)
  let grid = Grid.make ~rows:8 ~cols:8 in
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  let snake = Schedule.depth (route ~engine:"snake" grid pi) in
  let local = Schedule.depth (route ~engine:"local" grid pi) in
  checkb "snake much deeper" true (snake >= 3 * local)

(* ------------------------------------------------------------------- Noise *)

let test_noise_empty_circuit_perfect () =
  let c = Circuit.create ~num_qubits:3 [] in
  checkf "no gates, no errors" 1. (Noise.success_probability Noise.default c)

let test_noise_monotone_in_gates () =
  let c1 = Circuit.create ~num_qubits:2 [ Gate.Two (Gate.CX, 0, 1) ] in
  let c2 =
    Circuit.create ~num_qubits:2
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 0, 1) ]
  in
  checkb "more gates, lower success" true
    (Noise.success_probability Noise.default c2
    < Noise.success_probability Noise.default c1)

let test_noise_native_swap_cheaper () =
  let c = Circuit.create ~num_qubits:2 [ Gate.Two (Gate.SWAP, 0, 1) ] in
  let native = { Noise.default with Noise.native_swap = true } in
  checkb "native swap beats 3 CX" true
    (Noise.success_probability native c
    > Noise.success_probability Noise.default c)

let test_noise_gate_counts () =
  let c =
    Circuit.create ~num_qubits:3
      [ Gate.One (Gate.H, 0); Gate.One (Gate.X, 1); Gate.Two (Gate.CX, 0, 1) ]
  in
  let ones, twos = Noise.gate_counts c in
  checki "1q" 2 ones;
  checki "2q" 1 twos

let test_noise_prefers_shallow_routing () =
  (* The motivating claim: lower-depth transpilation gives higher estimated
     success.  Compare local vs snake on the same instance. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi = Generators.generate grid Generators.Random (Rng.create 3) in
  let to_circuit engine =
    Circuit.of_schedule ~num_qubits:16 (route ~engine grid pi)
  in
  checkb "shallower schedule, higher success" true
    (Noise.log_success Noise.default (to_circuit "local")
    > Noise.log_success Noise.default (to_circuit "snake"))

(* --------------------------------------------------------------- Placement *)

let test_placement_valid_layout () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let rng = Rng.create 11 in
  let c = Library.random_two_qubit rng ~num_qubits:9 ~gates:20 in
  let layout =
    Placement.place ~graph:(Grid.graph grid) ~dist:(Distance.of_grid grid) c
  in
  checkb "valid" true (Perm.is_permutation (Layout.to_phys_array layout))

let test_placement_pairs_adjacent_when_possible () =
  (* A circuit interacting only (0,1) and (2,3): placement must make both
     pairs adjacent on a 2x2 grid. *)
  let grid = Grid.make ~rows:2 ~cols:2 in
  let c =
    Circuit.create ~num_qubits:4
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 2, 3);
        Gate.Two (Gate.CX, 0, 1) ]
  in
  let layout =
    Placement.place ~graph:(Grid.graph grid) ~dist:(Distance.of_grid grid) c
  in
  let adjacent a b =
    Graph.mem_edge (Grid.graph grid) (Layout.phys layout a) (Layout.phys layout b)
  in
  checkb "0-1 adjacent" true (adjacent 0 1);
  checkb "2-3 adjacent" true (adjacent 2 3)

let test_placement_reduces_cost_vs_worst () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let dist = Distance.of_grid grid in
  let rng = Rng.create 12 in
  let c = Library.random_local_two_qubit rng ~grid ~radius:1 ~gates:40 in
  let placed = Placement.place ~graph:(Grid.graph grid) ~dist c in
  let placed_cost = Placement.placement_cost ~dist c placed in
  (* Compare against the mean of random layouts. *)
  let random_costs =
    Array.init 10 (fun k ->
        Placement.placement_cost ~dist c (Layout.random (Rng.create (50 + k)) 16))
  in
  checkb "beats the average random layout" true
    (placed_cost < Stats.mean random_costs)

let test_placement_interaction_weights () =
  let c =
    Circuit.create ~num_qubits:3
      [ Gate.Two (Gate.CX, 0, 1); Gate.Two (Gate.CX, 1, 0);
        Gate.Two (Gate.CZ, 1, 2) ]
  in
  match Placement.interaction_weights c with
  | [ ((0, 1, w01)); ((1, 2, w12)) ] ->
      checkf "pair 0-1 twice" 2. w01;
      checkf "pair 1-2 once" 1. w12
  | other ->
      Alcotest.failf "unexpected weights (%d entries)" (List.length other)

let test_placement_end_to_end_fewer_swaps () =
  (* Place-then-transpile a 1-local circuit: should need at most as many
     swaps as transpiling from a random layout. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  let dist = Distance.of_grid grid in
  let rng = Rng.create 13 in
  let c = Library.random_local_two_qubit rng ~grid ~radius:1 ~gates:40 in
  let placed = Placement.place ~graph:(Grid.graph grid) ~dist c in
  let swaps initial =
    Circuit.swap_count (transpile ~initial grid c).physical
  in
  let random_swaps = swaps (Layout.random (Rng.create 99) 16) in
  checkb "placement helps the router" true (swaps placed <= random_swaps)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "assignment",
        [
          Alcotest.test_case "identity matrix" `Quick test_assignment_identity_matrix;
          Alcotest.test_case "antidiagonal" `Quick test_assignment_antidiagonal;
          Alcotest.test_case "forced expensive" `Quick
            test_assignment_forced_expensive;
          Alcotest.test_case "empty" `Quick test_assignment_empty;
          Alcotest.test_case "negative costs" `Quick test_assignment_negative_costs;
          Alcotest.test_case "rejects ragged" `Quick test_assignment_rejects_ragged;
          qc assignment_matches_brute_force;
        ] );
      ( "partial_perm",
        [
          Alcotest.test_case "validates" `Quick test_partial_make_validates;
          Alcotest.test_case "accessors" `Quick test_partial_accessors;
          Alcotest.test_case "of_perm" `Quick test_partial_of_perm_total;
          Alcotest.test_case "honors constraints" `Quick
            test_partial_extend_honors_constraints;
          Alcotest.test_case "stay keeps free" `Quick test_partial_stay_keeps_free;
          Alcotest.test_case "min-total optimal" `Quick
            test_partial_min_total_is_optimal;
          Alcotest.test_case "greedy on line" `Quick
            test_partial_greedy_no_worse_than_stay_on_line;
          qc partial_extension_property;
        ] );
      ( "perm_stats",
        [
          Alcotest.test_case "identity" `Quick test_stats_identity;
          Alcotest.test_case "reversal" `Quick test_stats_reversal;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "bounding boxes" `Quick test_stats_bounding_boxes;
          Alcotest.test_case "block-local boxes" `Quick
            test_stats_block_local_boxes_small;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "identity" `Quick test_bounds_identity;
          Alcotest.test_case "reversal" `Quick test_bounds_reversal;
          Alcotest.test_case "cut" `Quick test_bounds_cut;
          Alcotest.test_case "routers respect depth bound" `Quick
            test_routers_respect_bounds;
          Alcotest.test_case "routers respect size bound" `Quick
            test_size_bound_respected;
        ] );
      ( "line_route",
        [
          Alcotest.test_case "snake adjacency" `Quick test_snake_order_adjacent;
          Alcotest.test_case "routes correctly" `Quick test_snake_routes_correctly;
          Alcotest.test_case "1xN = path router" `Quick
            test_snake_on_line_equals_path_router;
          Alcotest.test_case "one endpoint array" `Quick
            test_snake_one_endpoint_array;
          Alcotest.test_case "wasteful on squares" `Quick
            test_snake_much_deeper_on_square;
        ] );
      ( "noise",
        [
          Alcotest.test_case "empty perfect" `Quick test_noise_empty_circuit_perfect;
          Alcotest.test_case "monotone" `Quick test_noise_monotone_in_gates;
          Alcotest.test_case "native swap" `Quick test_noise_native_swap_cheaper;
          Alcotest.test_case "gate counts" `Quick test_noise_gate_counts;
          Alcotest.test_case "prefers shallow" `Quick
            test_noise_prefers_shallow_routing;
        ] );
      ( "placement",
        [
          Alcotest.test_case "valid layout" `Quick test_placement_valid_layout;
          Alcotest.test_case "adjacent pairs" `Quick
            test_placement_pairs_adjacent_when_possible;
          Alcotest.test_case "beats random" `Quick
            test_placement_reduces_cost_vs_worst;
          Alcotest.test_case "interaction weights" `Quick
            test_placement_interaction_weights;
          Alcotest.test_case "end to end" `Quick
            test_placement_end_to_end_fewer_swaps;
        ] );
    ]
