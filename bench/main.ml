(* Benchmark harness regenerating the paper's evaluation.

   The paper (an extended abstract) has two figures and no tables:

     Figure 4 — depth of computed swap networks, per grid size, workload
                class and algorithm;
     Figure 5 — time spent finding the swap networks, same sweep.

   Modes (first CLI argument):

     fig4      print the Figure-4 depth series
     fig5      print the Figure-5 runtime series
     parallel  route_batch throughput at 1/2/4/8 worker domains;
               writes BENCH_parallel.json
     ablation  isolate each design choice of LocalGridRoute
     circuits  end-to-end transpilation of the motivating workloads
     realistic depth on permutations harvested from real transpilations
     micro     Bechamel micro-benchmarks (one Test.make per figure/ablation)
     all       everything above (default)

   Optional second argument: comma-separated square grid sides for the
   sweeps (default "4,8,12,16,20,24").  With QROUTE_CSV=<dir> in the
   environment, fig4/fig5 additionally write machine-readable CSV files
   (one row per grid x workload x strategy x seed) for plotting.  Every
   schedule produced anywhere in this harness is checked to realize its
   permutation.

   The per-phase cost breakdown of one engine is
   [qroute sweep --engines NAME --trace FILE --metrics FILE]; the
   end-to-end and per-layer benchmark of record is perfbench/. *)

open Qroute

(* Module aliases alone do not force the umbrella's initializer; complete
   the engine registry explicitly (idempotent). *)
let () = Token_engines.register ()

let default_sides = [ 4; 8; 12; 16; 20; 24 ]

let seeds = 5

(* Figure 5's timed calls per seed, after one untimed call. *)
let timed_calls = 3

let header title =
  Printf.printf "\n================ %s ================\n" title

(* Mean depth lower bound over the sweep's seeds, for the gap column. *)
let mean_lower_bound grid kind =
  let bounds = Array.make seeds 0. in
  for seed = 0 to seeds - 1 do
    let pi = Generators.generate grid kind (Rng.create (1000 + seed)) in
    bounds.(seed) <- float_of_int (Bounds.depth_lower_bound grid pi)
  done;
  Stats.mean bounds

let csv_dir () = Sys.getenv_opt "QROUTE_CSV"

(* Raw per-seed rows for external plotting. *)
let write_csv name rows =
  match csv_dir () with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "grid_side,workload,strategy,seed,depth,swaps,seconds\n";
          List.iter
            (fun (side, kind, strategy, seed, depth, swaps, seconds) ->
              Out_channel.output_string oc
                (Printf.sprintf "%d,%s,%s,%d,%d,%d,%.9f\n" side kind strategy
                   seed depth swaps seconds))
            (List.rev rows));
      Printf.printf "(csv written to %s)\n" path

let csv_rows : (int * string * string * int * int * int * float) list ref =
  ref []

let record_csv side kind engine seed depth swaps seconds =
  if csv_dir () <> None then
    csv_rows :=
      (side, Generators.name kind, engine.Router_intf.name, seed, depth,
       swaps, seconds)
      :: !csv_rows

(* One row of the sweep: each engine's mean depth and mean seconds over
   the seeds, with the correctness of each schedule asserted.  The seeds
   are the outer loop and every engine routes a seed's permutation in
   turn, so a burst of load on the host spreads over the row instead of
   deciding one engine's cell.  An engine routes each permutation once
   untimed, so first-touch allocation and cold caches stay out of the
   figure, and its seconds are the fastest of [timed_calls] more calls.
   With [timed_calls = 0] (Figure 4, which reports depth) the untimed
   call's seconds stand. *)
let measure_row ~timed_calls side grid kind engines =
  let cells =
    List.map (fun _ -> (Array.make seeds 0., Array.make seeds 0.)) engines
  in
  for seed = 0 to seeds - 1 do
    let pi = Generators.generate grid kind (Rng.create (1000 + seed)) in
    List.iter2
      (fun engine (depths, times) ->
        let sched, first =
          Timer.time (fun () -> Router_intf.route_grid engine grid pi)
        in
        assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
        let seconds = ref (if timed_calls = 0 then first else infinity) in
        for _ = 1 to timed_calls do
          let _, s =
            Timer.time (fun () -> Router_intf.route_grid engine grid pi)
          in
          seconds := Float.min !seconds s
        done;
        depths.(seed) <- float_of_int (Schedule.depth sched);
        times.(seed) <- !seconds;
        record_csv side kind engine seed (Schedule.depth sched)
          (Schedule.size sched) !seconds)
      engines cells
  done;
  List.map (fun (depths, times) -> (Stats.mean depths, Stats.mean times)) cells

(* The sweep's engine set and column headers come from the registry, so a
   newly registered engine shows up in Figures 4 and 5 with no harness
   change. *)
let sweep sides pick render unit_label ~with_bound ~timed_calls =
  let engines = Router_registry.all () in
  Printf.printf "%-6s %-13s" "grid" "workload";
  List.iter
    (fun e -> Printf.printf " %12s" e.Router_intf.name)
    engines;
  if with_bound then Printf.printf "        bound";
  print_newline ();
  List.iter
    (fun side ->
      let grid = Grid.make ~rows:side ~cols:side in
      List.iter
        (fun kind ->
          Printf.printf "%-6s %-13s"
            (Printf.sprintf "%dx%d" side side)
            (Generators.name kind);
          List.iter
            (fun cell -> Printf.printf " %12s" (render (pick cell)))
            (measure_row ~timed_calls side grid kind engines);
          if with_bound then
            Printf.printf " %12.2f" (mean_lower_bound grid kind);
          print_newline ())
        (Generators.paper_kinds grid))
    sides;
  Printf.printf "(%s; mean over %d seeds)\n" unit_label seeds

let fig4 sides =
  header "Figure 4: depth of computed swap networks";
  csv_rows := [];
  sweep sides fst
    (fun x -> Printf.sprintf "%.2f" x)
    "depth in matchings/SWAP layers; bound = displacement/cut lower bound"
    ~with_bound:true ~timed_calls:0;
  write_csv "fig4" !csv_rows

let fig5 sides =
  header "Figure 5: time spent finding swap networks";
  csv_rows := [];
  sweep sides
    (fun (_, t) -> t)
    (fun x -> Printf.sprintf "%.6f" x)
    (Printf.sprintf "seconds per routing call, fastest of %d after one untimed"
       timed_calls)
    ~with_bound:false ~timed_calls;
  write_csv "fig5" !csv_rows

(* ------------------------------------------------------------- parallel *)

(* Multicore scaling of route_batch-style fan-out: route the same bag of
   random permutations through a {!Worker_pool} of 1/2/4/8 domains and
   report throughput, speedup over the single-worker run and the
   per-item latency tail.  This is the yardstick for the [serve
   --workers N] mode: the pool and the per-item task closure here are
   exactly what the server's [route_batch] handler submits.  Writes
   BENCH_parallel.json.  On a single-core container the speedups will
   hover near 1.0 — the interesting numbers come from a multi-core
   runner (CI). *)
let parallel () =
  header "Parallel: route_batch throughput vs worker count (16x16, random)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  let n = Grid.size grid in
  let engine = Router_registry.get "local" in
  let perm_count = 64 in
  let perms =
    List.init perm_count (fun i ->
        Generators.generate grid Generators.Random (Rng.create (11000 + i)))
  in
  let run workers =
    let pool = Worker_pool.create ~workers () in
    (* Warm-up pass so domain spawn cost and first-touch allocation stay
       out of the measured run. *)
    ignore
      (Worker_pool.map_tasks pool
         (fun pi -> Schedule.depth (Router_intf.route_grid engine grid pi))
         perms);
    let latencies, wall =
      Timer.time (fun () ->
          Worker_pool.map_tasks pool
            (fun pi ->
              let sched, seconds =
                Timer.time (fun () -> Router_intf.route_grid engine grid pi)
              in
              assert (Schedule.realizes ~n sched pi);
              seconds)
            perms)
    in
    Worker_pool.shutdown pool;
    let lat = Array.of_list latencies in
    Array.sort compare lat;
    ( float_of_int perm_count /. wall,
      wall,
      Stats.percentile lat 50.,
      Stats.percentile lat 99. )
  in
  let worker_counts = [ 1; 2; 4; 8 ] in
  let results = List.map (fun w -> (w, run w)) worker_counts in
  let base_throughput =
    match results with (_, (t, _, _, _)) :: _ -> t | [] -> nan
  in
  Printf.printf "%-8s %14s %10s %12s %12s\n" "workers" "perms/s" "speedup"
    "p50 (ms)" "p99 (ms)";
  let rows =
    List.map
      (fun (w, (throughput, wall, p50, p99)) ->
        let speedup = throughput /. base_throughput in
        Printf.printf "%-8d %14.1f %10.2f %12.3f %12.3f\n" w throughput
          speedup (p50 *. 1e3) (p99 *. 1e3);
        Obs_json.Obj
          [
            ("workers", Obs_json.Int w);
            ("throughput_per_s", Obs_json.Float throughput);
            ("wall_s", Obs_json.Float wall);
            ("speedup", Obs_json.Float speedup);
            ("p50_ms", Obs_json.Float (p50 *. 1e3));
            ("p99_ms", Obs_json.Float (p99 *. 1e3));
          ])
      results
  in
  let doc =
    Obs_json.Obj
      [
        ("workload", Obs_json.String "random");
        ("grid_side", Obs_json.Int 16);
        ("strategy", Obs_json.String "local");
        ("perms", Obs_json.Int perm_count);
        ("rows", Obs_json.List rows);
      ]
  in
  let path = "BENCH_parallel.json" in
  Out_channel.with_open_text path (fun oc -> Obs_json.to_channel oc doc);
  let content = In_channel.with_open_text path In_channel.input_all in
  (match Obs_json.of_string content with
  | Ok parsed ->
      if not (Obs_json.equal parsed doc) then
        failwith "BENCH_parallel.json did not round-trip"
  | Error msg ->
      failwith ("BENCH_parallel.json is not well-formed: " ^ msg));
  Printf.printf "(parallel scaling written to %s)\n" path

(* ------------------------------------------------------------- ablations *)

let ablation_discovery_assignment () =
  header "Ablation A: banded discovery x MCBBM assignment (LocalGridRoute)";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  Printf.printf "%-13s %14s %14s %14s %14s %14s\n" "workload" "doubling+mcbbm"
    "doubling+arb" "whole+mcbbm" "whole+arb" "band4+mcbbm";
  (* Each cell is the [local1] engine under a different configuration —
     the knobs travel through Router_config rather than ad-hoc labels. *)
  let configurations =
    List.map
      (fun spec -> Router_config.of_string_exn spec)
      [ "discovery=doubling,assignment=mcbbm";
        "discovery=doubling,assignment=arbitrary";
        "discovery=whole,assignment=mcbbm";
        "discovery=whole,assignment=arbitrary";
        "discovery=fixed:4,assignment=mcbbm" ]
  in
  let local1 = Router_registry.get "local1" in
  List.iter
    (fun kind ->
      let mean_depth config =
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let pi = Generators.generate grid kind (Rng.create (2000 + seed)) in
          let sched = Router_intf.route_grid ~config local1 grid pi in
          assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      let cells = List.map mean_depth configurations in
      Printf.printf "%-13s %14.2f %14.2f %14.2f %14.2f %14.2f\n"
        (Generators.name kind) (List.nth cells 0) (List.nth cells 1)
        (List.nth cells 2) (List.nth cells 3) (List.nth cells 4))
    (Generators.paper_kinds grid)

let ablation_transpose () =
  header "Ablation B: transpose trick (Algorithm 1 vs Algorithm 2 alone)";
  Printf.printf "%-8s %-13s %14s %13s\n" "grid" "workload" "transpose=off"
    "transpose=on";
  let local = Router_registry.get "local" in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      List.iter
        (fun kind ->
          let mean config =
            let depths = Array.make seeds 0. in
            for seed = 0 to seeds - 1 do
              let pi = Generators.generate grid kind (Rng.create (3000 + seed)) in
              let sched = Router_intf.route_grid ~config local grid pi in
              depths.(seed) <- float_of_int (Schedule.depth sched)
            done;
            Stats.mean depths
          in
          Printf.printf "%-8s %-13s %14.2f %13.2f\n"
            (Printf.sprintf "%dx%d" m n)
            (Generators.name kind)
            (mean { Router_config.default with transpose = false })
            (mean Router_config.default))
        (Generators.paper_kinds grid))
    [ (8, 24); (24, 8); (16, 16) ]

let ablation_compaction () =
  header "Ablation C: ASAP compaction post-pass";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  let n = Grid.size grid in
  Printf.printf "%-13s %-11s %10s %12s\n" "workload" "strategy" "depth"
    "compacted";
  List.iter
    (fun kind ->
      List.iter
        (fun name ->
          let engine = Router_registry.get name in
          let before = Array.make seeds 0. and after = Array.make seeds 0. in
          for seed = 0 to seeds - 1 do
            let pi = Generators.generate grid kind (Rng.create (4000 + seed)) in
            let sched = Router_intf.route_grid engine grid pi in
            let compacted =
              Router_intf.route_grid
                ~config:{ Router_config.default with compaction = true }
                engine grid pi
            in
            assert (Schedule.realizes ~n compacted pi);
            before.(seed) <- float_of_int (Schedule.depth sched);
            after.(seed) <- float_of_int (Schedule.depth compacted)
          done;
          Printf.printf "%-13s %-11s %10.2f %12.2f\n" (Generators.name kind)
            name (Stats.mean before) (Stats.mean after))
        [ "local"; "naive" ])
    (Generators.paper_kinds grid)

let ablation_ats_trials () =
  header "Ablation E: randomized trials in parallel ATS";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  let ats = Router_registry.get "ats" in
  Printf.printf "%-13s %12s %12s %12s\n" "workload" "trials=1" "trials=4"
    "trials=8";
  List.iter
    (fun kind ->
      let mean trials =
        let config = { Router_config.default with ats_trials = trials } in
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let pi = Generators.generate grid kind (Rng.create (6000 + seed)) in
          let sched = Router_intf.route_grid ~config ats grid pi in
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      Printf.printf "%-13s %12.2f %12.2f %12.2f\n" (Generators.name kind)
        (mean 1) (mean 4) (mean 8))
    (Generators.paper_kinds grid)

let workload_characterization () =
  header "Workload characterization (Perm_stats, 16x16, seed 1000)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  Printf.printf "%-13s %s\n" "workload" "statistics";
  List.iter
    (fun kind ->
      let pi = Generators.generate grid kind (Rng.create 1000) in
      let stats = Perm_stats.compute grid pi in
      let boxes = Perm_stats.cycle_bounding_boxes grid pi in
      let max_box =
        List.fold_left (fun acc (h, w) -> max acc (max h w)) 0 boxes
      in
      Format.printf "%-13s %a max_box=%d@." (Generators.name kind)
        Perm_stats.pp stats max_box)
    (Generators.paper_kinds grid @ [ Generators.Reversal ])

let ablation_noise () =
  header "Ablation F: estimated success probability of the routed circuit";
  let grid = Grid.make ~rows:8 ~cols:8 in
  let n = Grid.size grid in
  Printf.printf "%-13s %-11s %10s %10s %14s\n" "workload" "strategy" "depth"
    "swaps" "log10(success)";
  List.iter
    (fun kind ->
      List.iter
        (fun engine ->
          let pi = Generators.generate grid kind (Rng.create 7000) in
          let sched = route ~engine grid pi in
          let circuit = Circuit.of_schedule ~num_qubits:n sched in
          Printf.printf "%-13s %-11s %10d %10d %14.3f\n"
            (Generators.name kind) engine
            (Schedule.depth sched) (Schedule.size sched)
            (Noise.log_success Noise.default circuit /. log 10.))
        [ "local"; "ats"; "snake" ])
    [ Generators.Random; Generators.Block_local 2 ]

let ablation_partial () =
  header "Ablation G: don't-care extension policies (partial permutations)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  let n = Grid.size grid in
  let dist u v = Grid.manhattan grid u v in
  Printf.printf "%-12s %10s %14s %12s\n" "constrained" "stay" "greedy-near"
    "min-total";
  List.iter
    (fun k ->
      let mean policy =
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let rng = Rng.create (8000 + seed) in
          (* k random source/destination pairs, rest don't-care. *)
          let srcs = Rng.sample_distinct rng k n in
          let dsts = Rng.sample_distinct rng k n in
          let partial = Partial_perm.make ~n (List.combine srcs dsts) in
          let sched, _ = route_partial ~policy grid partial in
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      Printf.printf "%-12d %10.2f %14.2f %12.2f\n" k
        (mean Partial_perm.Stay)
        (mean (Partial_perm.Greedy_nearest dist))
        (mean (Partial_perm.Min_total dist)))
    [ 8; 32; 96 ]

let circuits () =
  header "End-to-end transpilation of the motivating workloads (6x6 grid)";
  let grid = Grid.make ~rows:6 ~cols:6 in
  let n = Grid.size grid in
  let rng = Rng.create 42 in
  let workloads =
    [ ("qft", Library.qft n);
      ("trotter-2d x3", Library.ising_trotter_2d grid ~steps:3 ~theta:0.2);
      ("random-global", Library.random_two_qubit rng ~num_qubits:n ~gates:150);
      ("random-local r2",
       Library.random_local_two_qubit rng ~grid ~radius:2 ~gates:150) ]
  in
  Printf.printf "%-15s %-7s %7s %7s %7s %9s %9s %10s\n" "circuit" "router"
    "size" "depth" "swaps" "opt-size" "opt-depth" "log10(p)";
  let place logical =
    Placement.place ~graph:(Grid.graph grid) ~dist:(Distance.of_grid grid)
      logical
  in
  let transpilers =
    List.map
      (fun engine ->
        (engine,
         fun logical -> transpile ~engine ~initial:(place logical) grid logical))
      [ "local"; "ats"; "snake" ]
    @ [ ("sabre",
         fun logical ->
           Sabre_lite.run_grid ~initial:(place logical) grid logical) ]
  in
  List.iter
    (fun (label, logical) ->
      List.iter
        (fun (router_name, run) ->
          let result = run logical in
          assert (Transpile.verify_feasible (Grid.graph grid) result);
          let optimized = Optimize.run result.physical in
          Printf.printf "%-15s %-7s %7d %7d %7d %9d %9d %10.2f\n" label
            router_name
            (Circuit.size result.physical)
            (Circuit.depth result.physical)
            (Circuit.swap_count result.physical)
            (Circuit.size optimized) (Circuit.depth optimized)
            (Noise.log_success Noise.default optimized /. log 10.))
        transpilers;
      Printf.printf "%-15s logical %6d %7d %7d\n" label
        (Circuit.size logical) (Circuit.depth logical)
        (Circuit.swap_count logical))
    workloads

(* Harvest the permutations a real transpilation asks its router to
   realize, then race the routers on exactly those instances. *)
let realistic () =
  header "Realistic workloads: permutations harvested from transpilations (8x8)";
  let grid = Grid.make ~rows:8 ~cols:8 in
  let n = Grid.size grid in
  let harvest circuit =
    let bag = ref [] in
    ignore
      (Transpile.run_grid ~on_route:(fun rho _ -> bag := rho :: !bag) grid
         circuit);
    List.rev !bag
  in
  let sources =
    [ ("qft-slices", harvest (Library.qft n));
      ("trotter-scrambled",
       (* Trotter steps from a scrambled layout: the router fixes up a
          block-local permutation before a feasible circuit. *)
       harvest
         (Circuit.map_qubits
            (fun q ->
              (Generators.generate grid (Generators.Block_local 4)
                 (Rng.create 99)).(q))
            (Library.ising_trotter_2d grid ~steps:1 ~theta:0.1)));
      ("random-circuit",
       harvest
         (Library.random_two_qubit (Rng.create 5) ~num_qubits:n ~gates:80)) ]
  in
  Printf.printf "%-18s %6s %12s %12s %12s %12s\n" "source" "perms" "local"
    "naive" "ats" "bound";
  List.iter
    (fun (label, perms) ->
      let nonzero = List.filter (fun pi -> not (Perm.is_identity pi)) perms in
      if nonzero = [] then Printf.printf "%-18s %6d (all identity)\n" label 0
      else begin
        let mean engine =
          let depths =
            List.map
              (fun pi -> float_of_int (Schedule.depth (route ~engine grid pi)))
              nonzero
          in
          Stats.mean (Array.of_list depths)
        in
        let bound =
          Stats.mean
            (Array.of_list
               (List.map
                  (fun pi -> float_of_int (Bounds.depth_lower_bound grid pi))
                  nonzero))
        in
        Printf.printf "%-18s %6d %12.2f %12.2f %12.2f %12.2f\n" label
          (List.length nonzero) (mean "local") (mean "naive") (mean "ats")
          bound
      end)
    sources

let ablation_rounds () =
  header "Ablation H: where the depth goes (3-round breakdown, 16x16)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  Printf.printf "%-13s %-8s %8s %8s %8s\n" "workload" "sigmas" "round1"
    "round2" "round3";
  List.iter
    (fun kind ->
      let pi = Generators.generate grid kind (Rng.create 9000) in
      List.iter
        (fun (label, sigmas) ->
          let r1, r2, r3 = Grid_route.round_depths grid pi sigmas in
          Printf.printf "%-13s %-8s %8d %8d %8d\n" (Generators.name kind)
            label r1 r2 r3)
        [ ("local", Local_grid_route.sigmas grid pi);
          ( "naive",
            Local_grid_route.sigmas ~discovery:Local_grid_route.Whole
              ~assignment:Local_grid_route.Arbitrary grid pi ) ])
    (Generators.paper_kinds grid)

let ablations () =
  workload_characterization ();
  ablation_discovery_assignment ();
  ablation_rounds ();
  ablation_transpose ();
  ablation_compaction ();
  ablation_ats_trials ();
  ablation_noise ();
  ablation_partial ()

(* ------------------------------------------------------------------ micro *)

let micro () =
  header "Bechamel micro-benchmarks (fixed instances, 16x16 unless named)";
  let open Bechamel in
  let grid = Grid.make ~rows:16 ~cols:16 in
  let g = Grid.graph grid and oracle = Distance.of_grid grid in
  let pi_random = Generators.generate grid Generators.Random (Rng.create 1) in
  let pi_block =
    Generators.generate grid (Generators.Block_local 4) (Rng.create 1)
  in
  let cg = Column_graph.build grid pi_random in
  let edges =
    Array.init (Column_graph.num_edges cg) (fun e ->
        (Column_graph.src_col cg e, Column_graph.dst_col cg e))
  in
  let dests = Rng.permutation (Rng.create 2) 64 in
  let lines =
    let rng = Rng.create 3 in
    Array.init 256 (fun _ -> Rng.permutation rng 64)
  in
  let next_line = ref 0 in
  let tokens = Array.make 64 0 and counts = Array.make 65 0 in
  let best_random = route ~engine:"best" grid pi_random in
  let reply = Buffer.create 16 in
  Schedule.to_buffer reply best_random;
  (* The same route as a request line, already planned by the session,
     and its twin with an escaped method, which the session reads as a
     tree after the hot-shape reader refuses it. *)
  let route_line meth =
    Printf.sprintf
      {|{"id":1,"method":"%s","params":{"grid":{"rows":16,"cols":16},"perm":[%s],"engine":"best"}}|}
      meth
      (String.concat "," (Array.to_list (Array.map string_of_int pi_random)))
  in
  let hit_line = route_line "route" in
  let escaped_line = route_line {|rout\u0065|} in
  let session = Server_session.create () in
  ignore (Server_session.handle_line session hit_line);
  let grid32 = Grid.make ~rows:32 ~cols:32 in
  let pi32 = Generators.generate grid32 Generators.Random (Rng.create 1) in
  let cg32 = Column_graph.build grid32 pi32 in
  let tests =
    [
      (* One Test.make per figure series. *)
      Test.make ~name:"fig4+5/local/random"
        (Staged.stage (fun () -> route ~engine:"local" grid pi_random));
      Test.make ~name:"fig4+5/naive/random"
        (Staged.stage (fun () -> route ~engine:"naive" grid pi_random));
      Test.make ~name:"fig4+5/ats/random"
        (Staged.stage (fun () -> Parallel_ats.route ~trials:1 g oracle pi_random));
      Test.make ~name:"fig4+5/local/block"
        (Staged.stage (fun () -> route ~engine:"local" grid pi_block));
      Test.make ~name:"fig4+5/ats/block"
        (Staged.stage (fun () -> Parallel_ats.route ~trials:1 g oracle pi_block));
      (* One per ablation. *)
      Test.make ~name:"ablation/discover-whole"
        (Staged.stage (fun () ->
             Local_grid_route.discover_matchings Local_grid_route.Whole cg));
      Test.make ~name:"ablation/mcbbm-assignment"
        (Staged.stage (fun () ->
             let matchings =
               Local_grid_route.discover_matchings Local_grid_route.Doubling cg
             in
             Local_grid_route.assign_rows Local_grid_route.Mcbbm cg matchings));
      (* Substrate primitives. *)
      Test.make ~name:"substrate/hopcroft-karp"
        (Staged.stage (fun () ->
             Hopcroft_karp.solve ~nl:16 ~nr:16 ~edges));
      (* The flat path router, from the shallower parity. *)
      Test.make ~name:"substrate/odd-even-path-64"
        (Staged.stage (fun () -> Path_route.route dests));
      (* The counted rounds GridRoute plans with, both parities, on a
         different line each run: one line repeated trains the branch
         predictor on its compare outcomes. *)
      Test.make ~name:"substrate/count-layers-64"
        (Staged.stage (fun () ->
             let line = lines.(!next_line land 255) in
             incr next_line;
             Array.blit line 0 tokens 0 64;
             ignore (Path_route.count_layers tokens 64 0 counts);
             Array.blit line 0 tokens 0 64;
             ignore (Path_route.count_layers tokens 64 1 counts)));
      (* A plan-cache hit's reply: one 16x16 best schedule written into
         a cleared buffer already grown to its text's length. *)
      Test.make ~name:"serve/schedule-to-buffer-16x16"
        (Staged.stage (fun () ->
             Buffer.clear reply;
             Schedule.to_buffer reply best_random));
      (* The hit's request line read without a tree: its 256-entry
         perm is most of the bytes. *)
      Test.make ~name:"serve/read-route-line-16x16"
        (Staged.stage (fun () -> Server_protocol.read_route_line hit_line));
      (* A plan-cache hit, request line to reply line. *)
      Test.make ~name:"serve/route-hit-16x16"
        (Staged.stage (fun () -> Server_session.handle_line session hit_line));
      Test.make ~name:"serve/route-hit-16x16-escaped"
        (Staged.stage (fun () ->
             Server_session.handle_line session escaped_line));
      (* Kernel phases at the benchmark's 32x32 size. *)
      Test.make ~name:"kernel/band-drain-32x32"
        (Staged.stage (fun () ->
             Local_grid_route.discover_matchings Local_grid_route.Doubling cg32));
      (* The snake baseline: one odd-even path through all 1024 vertices. *)
      Test.make ~name:"route/snake-32x32"
        (Staged.stage (fun () -> route ~engine:"snake" grid32 pi32));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"qroute" ~fmt:"%s/%s" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let nanos =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> estimate
          | _ -> nan
        in
        (name, nanos) :: acc)
      results []
  in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, nanos) -> Printf.printf "%-40s %16.0f\n" name nanos)
    (List.sort compare rows)

let parse_sides s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.map int_of_string_opt
  with
  | sides
    when List.for_all (function Some k -> k > 0 | None -> false) sides
         && sides <> [] ->
      List.map Option.get sides
  | _ ->
      Printf.eprintf "bad sides %S; using defaults\n" s;
      default_sides

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let sides =
    if Array.length Sys.argv > 2 then parse_sides Sys.argv.(2)
    else default_sides
  in
  match mode with
  | "fig4" -> fig4 sides
  | "fig5" -> fig5 sides
  | "parallel" -> parallel ()
  | "ablation" -> ablations ()
  | "circuits" -> circuits ()
  | "realistic" -> realistic ()
  | "micro" -> micro ()
  | "all" ->
      fig4 sides;
      fig5 sides;
      parallel ();
      ablations ();
      circuits ();
      realistic ();
      micro ()
  | other ->
      Printf.eprintf "unknown mode %S (expected fig4|fig5|parallel|ablation|circuits|realistic|micro|all)\n"
        other;
      exit 1
