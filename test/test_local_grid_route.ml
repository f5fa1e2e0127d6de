(* Tests for Qr_route.Local_grid_route (Algorithms 1 and 2 of the paper). *)

module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Generators = Qr_perm.Generators
module Schedule = Qr_route.Schedule
module Column_graph = Qr_route.Column_graph
module Grid_route = Qr_route.Grid_route
module Local = Qr_route.Local_grid_route
module HK = Qr_bipartite.Hopcroft_karp
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let grids = [ (1, 1); (1, 6); (6, 1); (2, 2); (3, 5); (5, 3); (6, 6) ]

let test_routes_all_kinds () =
  let rng = Rng.create 1 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      List.iter
        (fun kind ->
          let pi = Generators.generate grid kind rng in
          let s = Local.route grid pi in
          checkb "valid" true (Schedule.is_valid (Grid.graph grid) s);
          checkb "realizes" true (Schedule.realizes ~n:(m * n) s pi))
        (Generators.paper_kinds grid @ [ Generators.Reversal ]))
    grids

let test_best_orientation_correct () =
  let rng = Rng.create 2 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      for _ = 1 to 5 do
        let pi = Perm.check (Rng.permutation rng (m * n)) in
        let s = Local.route_best_orientation grid pi in
        checkb "valid on original grid" true (Schedule.is_valid (Grid.graph grid) s);
        checkb "realizes" true (Schedule.realizes ~n:(m * n) s pi)
      done)
    grids

let test_best_orientation_no_worse () =
  let rng = Rng.create 3 in
  let grid = Grid.make ~rows:3 ~cols:7 in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 21) in
    let direct = Local.route grid pi in
    let best = Local.route_best_orientation grid pi in
    checkb "min of both orientations" true
      (Schedule.depth best <= Schedule.depth direct)
  done

(* The column graph's edges as (source column, destination column)
   pairs, indexed by edge id: the form Decompose.validate checks. *)
let column_edges cg =
  Array.init (Column_graph.num_edges cg) (fun e ->
      (Column_graph.src_col cg e, Column_graph.dst_col cg e))

(* Every discovery is the one band drain, so each must split the
   m-regular column multigraph into m perfect matchings.  Every d-regular
   bipartite multigraph on n vertices a side is the column graph of some
   d x n permutation, so random shapes cover them all; cols = 1 is the
   all-parallel-edges case. *)
let discovery_partitions_edges =
  QCheck.Test.make ~name:"discovery partitions" ~count:300
    QCheck.(
      quad (Arb.int_range 1 8) (Arb.int_range 1 8) (Arb.int_range 1 9) (int_range 0 100000))
    (fun (m, n, h, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      let cg = Column_graph.build grid pi in
      List.for_all
        (fun discovery ->
          let matchings = Local.discover_matchings discovery cg in
          List.length matchings = m
          && Decompose.validate ~nl:n ~nr:n ~edges:(column_edges cg) matchings)
        [ Local.Doubling; Local.Whole; Local.Fixed_band h ])

(* The band drain as first written, as a reference: the windows of
   Local.discover_matchings (width h - 1 first, 0 for Doubling and m - 1
   for Whole, then doubling), each drained by rescanning it through
   Column_graph.scan_band after every extraction.  It leaves out the
   column-coverage check, which only skips solves that cannot return a
   perfect matching. *)
let reference_matchings discovery cg =
  let m = Column_graph.rows cg and n = Column_graph.cols cg in
  let size = Column_graph.num_edges cg in
  let live = Array.make size true and ids = Array.make size 0 in
  let src = Array.make size 0 and dst = Array.make size 0 in
  let left_match = Array.make n (-1) and right_match = Array.make n (-1) in
  let hk = HK.workspace () and found = ref [] and count = ref 0 in
  let rec drain ~lo ~hi =
    let ne = Column_graph.scan_band cg ~live ~lo ~hi ~ids ~src ~dst in
    if
      ne >= n
      && HK.max_matching hk ~nl:n ~nr:n ~ne ~src ~dst ~left_match ~right_match = n
    then begin
      let matching = Array.map (fun k -> ids.(k)) left_match in
      Array.iter (fun e -> live.(e) <- false) matching;
      found := matching :: !found;
      incr count;
      drain ~lo ~hi
    end
  in
  let w =
    ref
      (match discovery with
      | Local.Doubling -> 0
      | Local.Fixed_band h -> h - 1
      | Local.Whole -> m - 1)
  in
  while !count < m do
    let r0 = ref 0 in
    while !r0 < m && !count < m do
      drain ~lo:!r0 ~hi:(min (!r0 + !w) (m - 1));
      r0 := !r0 + !w + 1
    done;
    w := if !w = 0 then 1 else 2 * !w
  done;
  List.rev !found

(* Matchings and their order feed the row assignment, so a drain that
   loses either changes schedules; this names the discovery and the
   permutation kind that broke. *)
let drain_matches_reference =
  QCheck.Test.make ~name:"discover_matchings = rescanning reference drain"
    ~count:300
    QCheck.(
      quad (Arb.int_range 1 10) (Arb.int_range 1 10) (pair (int_range 0 4) (Arb.int_range 1 11))
        (int_range 0 100000))
    (fun (m, n, (kind, h), seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let rng = Rng.create seed in
      let kind_name, pi =
        if kind = 0 then ("random", Perm.check (Rng.permutation rng (m * n)))
        else
          let k = List.nth (Generators.paper_kinds grid) (kind - 1) in
          (Generators.name k, Generators.generate grid k rng)
      in
      let cg = Column_graph.build grid pi in
      List.for_all
        (fun (name, discovery) ->
          Local.discover_matchings discovery cg = reference_matchings discovery cg
          || QCheck.Test.fail_reportf "%s differs on %dx%d %s" name m n kind_name)
        [
          ("doubling", Local.Doubling);
          (Printf.sprintf "fixed_band:%d" h, Local.Fixed_band h);
          ("whole", Local.Whole);
        ])

let test_doubling_finds_row_local_at_w0 () =
  (* For a permutation whose every row maps to itself with distinct
     destination columns (row-wise cyclic shift), every matching can be
     found in a single-row band, and each matching's edges then live in
     one row. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi =
    Qr_perm.Grid_perm.of_coord_map grid (fun (r, c) -> (r, (c + 1) mod 4))
  in
  let cg = Column_graph.build grid pi in
  let matchings = Local.discover_matchings Local.Doubling cg in
  checki "4 matchings" 4 (List.length matchings);
  List.iter
    (fun matching ->
      let rows =
        Array.to_list matching
        |> List.map (fun e -> Column_graph.src_row cg e)
        |> List.sort_uniq compare
      in
      checki "edges confined to one source row" 1 (List.length rows))
    matchings

let test_delta_metric () =
  let grid = Grid.make ~rows:3 ~cols:2 in
  (* Identity: column multigraph has edges j->j labeled (i,i). *)
  let pi = Perm.identity 6 in
  let cg = Column_graph.build grid pi in
  (* Matching of the two row-0 edges: labels (0,0) twice. *)
  let matching = [| Grid.index grid 0 0; Grid.index grid 0 1 |] in
  checki "delta at row 0" 0 (Local.delta cg matching 0);
  checki "delta at row 1" 4 (Local.delta cg matching 1);
  checki "delta at row 2" 8 (Local.delta cg matching 2)

let test_mcbbm_assignment_is_permutation () =
  let rng = Rng.create 5 in
  let grid = Grid.make ~rows:5 ~cols:4 in
  let pi = Perm.check (Rng.permutation rng 20) in
  let cg = Column_graph.build grid pi in
  let matchings = Local.discover_matchings Local.Doubling cg in
  let rows = Local.assign_rows Local.Mcbbm cg matchings in
  checkb "row assignment is a permutation" true (Perm.is_permutation rows)

let test_mcbbm_bottleneck_no_worse_than_arbitrary () =
  (* The MCBBM assignment minimizes the max Delta, so it is <= the max
     Delta of the arbitrary assignment. *)
  let rng = Rng.create 6 in
  for _ = 1 to 10 do
    let grid = Grid.make ~rows:5 ~cols:5 in
    let pi = Perm.check (Rng.permutation rng 25) in
    let cg = Column_graph.build grid pi in
    let matchings = Local.discover_matchings Local.Doubling cg in
    let max_delta rows =
      List.mapi (fun k m -> Local.delta cg m rows.(k)) matchings
      |> List.fold_left max 0
    in
    let mcbbm = Local.assign_rows Local.Mcbbm cg matchings in
    let arbitrary = Local.assign_rows Local.Arbitrary cg matchings in
    checkb "bottleneck optimal" true (max_delta mcbbm <= max_delta arbitrary)
  done

let test_row_local_permutation_is_cheap () =
  (* Cyclic column shift within each row: a locality-aware router should
     route it in about n layers (one row phase), far below the 2m + n
     worst case, and crucially with empty column phases. *)
  let grid = Grid.make ~rows:8 ~cols:8 in
  let pi =
    Qr_perm.Grid_perm.of_coord_map grid (fun (r, c) -> (r, (c + 1) mod 8))
  in
  let s = Local.route grid pi in
  checkb "no column phase needed" true (Schedule.depth s <= 8)

let test_block_local_beats_or_ties_naive_usually () =
  (* The headline behaviour: on block-local workloads the locality-aware
     router should never be dramatically worse than naive; we assert the
     paper's "can always be made no worse" via the min with naive. *)
  let rng = Rng.create 7 in
  let grid = Grid.make ~rows:8 ~cols:8 in
  for _ = 1 to 5 do
    let pi = Generators.generate grid (Generators.Block_local 2) rng in
    let local = Local.route_best_orientation grid pi in
    let naive =
      Qr_route.Router_intf.route_grid
        (Qr_route.Router_registry.get "naive")
        grid pi
    in
    let best = min (Schedule.depth local) (Schedule.depth naive) in
    checkb "combined strategy no worse than naive" true
      (best <= Schedule.depth naive)
  done

let test_ablation_switches_work () =
  let rng = Rng.create 8 in
  let grid = Grid.make ~rows:4 ~cols:6 in
  let pi = Perm.check (Rng.permutation rng 24) in
  List.iter
    (fun (discovery, assignment) ->
      let s = Local.route ~discovery ~assignment grid pi in
      checkb "every configuration routes" true (Schedule.realizes ~n:24 s pi))
    [
      (Local.Doubling, Local.Mcbbm);
      (Local.Doubling, Local.Arbitrary);
      (Local.Whole, Local.Mcbbm);
      (Local.Whole, Local.Arbitrary);
    ]

let local_route_property =
  QCheck.Test.make ~name:"LocalGridRoute correct on random instances"
    ~count:150
    QCheck.(triple (Arb.int_range 1 7) (Arb.int_range 1 7) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let rng = Rng.create seed in
      let pi = Perm.check (Rng.permutation rng (m * n)) in
      let s = Local.route grid pi in
      Schedule.is_valid (Grid.graph grid) s
      && Schedule.realizes ~n:(m * n) s pi
      && Schedule.depth s <= (2 * m) + n)

let best_orientation_property =
  QCheck.Test.make ~name:"Algorithm 1 correct and bounded by both orientations"
    ~count:100
    QCheck.(triple (Arb.int_range 1 6) (Arb.int_range 1 6) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let rng = Rng.create seed in
      let pi = Perm.check (Rng.permutation rng (m * n)) in
      let s = Local.route_best_orientation grid pi in
      Schedule.is_valid (Grid.graph grid) s
      && Schedule.realizes ~n:(m * n) s pi
      && Schedule.depth s <= min ((2 * m) + n) ((2 * n) + m))

let random_instance (m, n, seed) =
  let grid = Grid.make ~rows:m ~cols:n in
  (grid, Perm.check (Rng.permutation (Rng.create seed) (m * n)))

let shape_gen = QCheck.(triple (Arb.int_range 1 9) (Arb.int_range 1 9) (int_range 0 100000))

(* The histogram Δ against the per-row reference, on every matching the
   band search discovers. *)
let deltas_match_delta =
  QCheck.Test.make ~name:"all-rows deltas = delta per row" ~count:150 shape_gen
    (fun shape ->
      let grid, pi = random_instance shape in
      let cg = Column_graph.build grid pi in
      List.for_all
        (fun matching ->
          let all = Local.deltas cg matching in
          Array.length all = Grid.rows grid
          && Array.for_all Fun.id
               (Array.mapi (fun r d -> d = Local.delta cg matching r) all))
        (Local.discover_matchings Local.Doubling cg))

let transposed_column_graph =
  QCheck.Test.make ~name:"build_transposed = build on the transposed instance"
    ~count:150 shape_gen (fun shape ->
      let grid, pi = random_instance shape in
      let fast = Column_graph.build_transposed grid pi in
      let slow =
        Column_graph.build (Grid.transpose grid)
          (Qr_perm.Grid_perm.transpose grid pi)
      in
      let labels cg =
        List.init (Column_graph.num_edges cg) (fun e ->
            Column_graph.
              (src_row cg e, src_col cg e, dst_row cg e, dst_col cg e))
      in
      Column_graph.rows fast = Column_graph.rows slow
      && Column_graph.cols fast = Column_graph.cols slow
      && labels fast = labels slow)

(* Algorithm 1 against its reference: both orientations materialized
   through the public pipeline and the transposed one lifted back with
   map_vertices, the shallower kept (ties to the direct one). *)
let best_orientation_matches_reference =
  QCheck.Test.make ~name:"Algorithm 1 = two materialized orientations" ~count:150
    shape_gen (fun shape ->
      let grid, pi = random_instance shape in
      let direct = Local.route grid pi in
      let transposed =
        Local.route (Grid.transpose grid) (Qr_perm.Grid_perm.transpose grid pi)
        |> Schedule.map_vertices (Qr_perm.Grid_perm.untranspose_vertex grid)
      in
      let reference =
        if Schedule.depth transposed < Schedule.depth direct then transposed
        else direct
      in
      let sigmas = Local.sigmas grid pi in
      let d1, d2, d3 = Grid_route.round_depths grid pi sigmas in
      Local.route_best_orientation grid pi = reference
      && d1 + d2 + d3 = Schedule.depth direct)

(* Algorithm 2 plans its sigmas and its rounds on one column graph; the
   reference builds one for the sigmas and another for the rounds. *)
let route_matches_two_builds =
  QCheck.Test.make ~name:"route = route_with_sigmas of sigmas" ~count:150
    QCheck.(pair shape_gen (Arb.int_range 1 9))
    (fun (shape, h) ->
      let grid, pi = random_instance shape in
      List.for_all
        (fun (discovery, assignment) ->
          Local.route ~discovery ~assignment grid pi
          = Grid_route.route_with_sigmas grid pi
              (Local.sigmas ~discovery ~assignment grid pi))
        (List.concat_map
           (fun d -> [ (d, Local.Mcbbm); (d, Local.Arbitrary) ])
           [ Local.Doubling; Local.Whole; Local.Fixed_band h ]))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "local_grid_route"
    [
      ( "local_grid_route",
        [
          Alcotest.test_case "routes all kinds" `Quick test_routes_all_kinds;
          Alcotest.test_case "best orientation correct" `Quick
            test_best_orientation_correct;
          Alcotest.test_case "best orientation no worse" `Quick
            test_best_orientation_no_worse;
          Alcotest.test_case "w=0 bands for row-local" `Quick
            test_doubling_finds_row_local_at_w0;
          Alcotest.test_case "delta metric" `Quick test_delta_metric;
          Alcotest.test_case "mcbbm permutation" `Quick
            test_mcbbm_assignment_is_permutation;
          Alcotest.test_case "mcbbm bottleneck optimal" `Quick
            test_mcbbm_bottleneck_no_worse_than_arbitrary;
          Alcotest.test_case "row-local cheap" `Quick
            test_row_local_permutation_is_cheap;
          Alcotest.test_case "block-local vs naive" `Quick
            test_block_local_beats_or_ties_naive_usually;
          Alcotest.test_case "ablation switches" `Quick test_ablation_switches_work;
          qc discovery_partitions_edges;
          qc local_route_property;
          qc best_orientation_property;
          qc deltas_match_delta;
          qc transposed_column_graph;
          qc best_orientation_matches_reference;
          qc drain_matches_reference;
          qc route_matches_two_builds;
        ] );
    ]
