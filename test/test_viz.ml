(* Tests for Viz, statevector sampling, the transpile trace hook, and the
   fixed-band discovery ablation switch. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* -------------------------------------------------------------------- Viz *)

let test_grid_ascii_shape () =
  let grid = Grid.make ~rows:2 ~cols:3 in
  let text = Viz.grid_ascii grid in
  checkb "vertices" true (contains text "o---o---o");
  (* 2 vertex rows + 1 edge row *)
  checki "lines" 3 (List.length (String.split_on_char '\n' (String.trim text)))

let test_permutation_ascii_marks_displaced () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let text = Viz.permutation_ascii grid (Perm.transposition 4 0 3) in
  checkb "star on displaced" true (contains text "3*");
  checkb "no star on fixed" true (contains text "1 ")

let test_layer_ascii_draws_swaps () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let horizontal = Viz.layer_ascii grid [| (0, 1) |] in
  checkb "horizontal swap" true (contains horizontal "o===o");
  let vertical = Viz.layer_ascii grid [| (0, 2) |] in
  checkb "vertical swap" true (contains vertical "#")

let test_schedule_ascii_counts_layers () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let sched = Schedule.of_layers [ [| (0, 1) |]; [| (1, 3) |] ] in
  let text = Viz.schedule_ascii grid sched in
  checkb "layer 0" true (contains text "layer 0:");
  checkb "layer 1" true (contains text "layer 1:")

let test_occupancy_counts () =
  let grid = Grid.make ~rows:1 ~cols:3 in
  let sched = Schedule.of_layers [ [| (0, 1) |]; [| (1, 2) |] ] in
  let text = Viz.occupancy_ascii grid sched in
  (* vertex 1 participates twice, 0 and 2 once. *)
  checkb "pattern" true (contains text "1   2   1")

(* --------------------------------------------------------------- Sampling *)

let test_sample_basis_state () =
  let rng = Rng.create 1 in
  let s = Statevector.basis_state 3 5 in
  for _ = 1 to 20 do
    checki "deterministic outcome" 5 (Statevector.sample rng s)
  done

let test_sample_counts_sum () =
  let rng = Rng.create 2 in
  let s = Statevector.run_from_zero (Library.ghz 3) in
  let counts = Statevector.sample_counts rng s ~shots:200 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  checki "all shots accounted" 200 total;
  (* GHZ: only |000> and |111> appear. *)
  List.iter
    (fun (k, _) -> checkb "support" true (k = 0 || k = 7))
    counts;
  checki "both outcomes seen" 2 (List.length counts)

let test_sample_counts_roughly_balanced () =
  let rng = Rng.create 3 in
  let s = Statevector.run_from_zero (Library.ghz 2) in
  let counts = Statevector.sample_counts rng s ~shots:1000 in
  List.iter
    (fun (_, c) -> checkb "within 40-60%" true (c > 400 && c < 600))
    counts

(* ------------------------------------------------------------- Trace hook *)

let test_on_route_observes_everything () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  (* No final reversal: the logical circuit then has no SWAPs of its own,
     so every SWAP in the output is router-inserted. *)
  let c = Library.qft_no_reversal 9 in
  let observed = ref 0 in
  let swap_total = ref 0 in
  let result =
    Transpile.run_grid
      ~on_route:(fun rho sched ->
        incr observed;
        checkb "schedule realizes rho" true (Schedule.realizes ~n:9 sched rho);
        swap_total := !swap_total + Schedule.size sched)
      grid c
  in
  checkb "router was called" true (!observed > 0);
  checki "hook saw every swap" (Circuit.swap_count result.physical) !swap_total

let test_on_route_silent_when_feasible () =
  let grid = Grid.make ~rows:2 ~cols:3 in
  let c = Library.ising_trotter_2d grid ~steps:1 ~theta:0.1 in
  let observed = ref 0 in
  ignore (Transpile.run_grid ~on_route:(fun _ _ -> incr observed) grid c);
  checki "never called" 0 !observed

(* ------------------------------------------------------------- Fixed band *)

let test_fixed_band_routes_correctly () =
  let rng = Rng.create 4 in
  let grid = Grid.make ~rows:8 ~cols:8 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 64) in
    List.iter
      (fun h ->
        let sched =
          Local_grid_route.route
            ~discovery:(Local_grid_route.Fixed_band h) grid pi
        in
        checkb
          (Printf.sprintf "band %d realizes" h)
          true
          (Schedule.realizes ~n:64 sched pi))
      [ 1; 2; 4; 8 ]
  done

let test_fixed_band_partitions () =
  let rng = Rng.create 5 in
  let grid = Grid.make ~rows:6 ~cols:5 in
  let pi = Perm.check (Rng.permutation rng 30) in
  let cg = Column_graph.build grid pi in
  let matchings =
    Local_grid_route.discover_matchings (Local_grid_route.Fixed_band 3) cg
  in
  checki "m matchings" 6 (List.length matchings);
  let edges =
    Array.init (Column_graph.num_edges cg) (fun e ->
        (Column_graph.src_col cg e, Column_graph.dst_col cg e))
  in
  checkb "valid partition" true (Decompose.validate ~nl:5 ~nr:5 ~edges matchings)

let test_fixed_band_one_equals_doubling_start () =
  (* Band height 1 = the paper's doubling schedule from w = 0: identical
     discovery on a row-local permutation. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi = Qroute.Grid_perm.of_coord_map grid (fun (r, c) -> (r, (c + 1) mod 4)) in
  let cg = Column_graph.build grid pi in
  let a = Local_grid_route.discover_matchings Local_grid_route.Doubling cg in
  let b =
    Local_grid_route.discover_matchings (Local_grid_route.Fixed_band 1) cg
  in
  checkb "same matchings" true (a = b)

let test_fixed_band_rejects_nonpositive () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let cg = Column_graph.build grid (Perm.identity 4) in
  Alcotest.check_raises "zero band"
    (Invalid_argument "Local_grid_route: band height must be positive")
    (fun () ->
      ignore
        (Local_grid_route.discover_matchings (Local_grid_route.Fixed_band 0) cg))

let () =
  Alcotest.run "viz_and_hooks"
    [
      ( "viz",
        [
          Alcotest.test_case "grid ascii" `Quick test_grid_ascii_shape;
          Alcotest.test_case "permutation ascii" `Quick
            test_permutation_ascii_marks_displaced;
          Alcotest.test_case "layer ascii" `Quick test_layer_ascii_draws_swaps;
          Alcotest.test_case "schedule ascii" `Quick
            test_schedule_ascii_counts_layers;
          Alcotest.test_case "occupancy" `Quick test_occupancy_counts;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "basis state" `Quick test_sample_basis_state;
          Alcotest.test_case "counts sum" `Quick test_sample_counts_sum;
          Alcotest.test_case "balanced" `Quick test_sample_counts_roughly_balanced;
        ] );
      ( "trace hook",
        [
          Alcotest.test_case "observes" `Quick test_on_route_observes_everything;
          Alcotest.test_case "silent when feasible" `Quick
            test_on_route_silent_when_feasible;
        ] );
      ( "fixed band",
        [
          Alcotest.test_case "routes" `Quick test_fixed_band_routes_correctly;
          Alcotest.test_case "partitions" `Quick test_fixed_band_partitions;
          Alcotest.test_case "band1 = doubling" `Quick
            test_fixed_band_one_equals_doubling_start;
          Alcotest.test_case "rejects zero" `Quick test_fixed_band_rejects_nonpositive;
        ] );
    ]
