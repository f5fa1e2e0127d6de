(* Tests for Qr_token (Token_swap, Parallel_ats, Ats_core) and the
   test-side Exact oracle. *)

module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Generators = Qr_perm.Generators
module Schedule = Qr_route.Schedule
module Token_swap = Qr_token.Token_swap
module Parallel_ats = Qr_token.Parallel_ats
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let apply_swaps n pi swaps =
  let dest_at = Array.copy pi in
  List.iter
    (fun (u, v) ->
      let tmp = dest_at.(u) in
      dest_at.(u) <- dest_at.(v);
      dest_at.(v) <- tmp)
    swaps;
  Perm.is_identity (Perm.check dest_at) && n = Array.length pi

(* ------------------------------------------------------------- Token_swap *)

let test_serial_identity () =
  let g = Graph.path 5 in
  let swaps = Token_swap.serial g (Distance.of_graph g) (Perm.identity 5) in
  checki "no swaps" 0 (List.length swaps)

let test_serial_adjacent_transposition () =
  let g = Graph.path 3 in
  let pi = Perm.transposition 3 0 1 in
  let swaps = Token_swap.serial g (Distance.of_graph g) pi in
  Alcotest.check Alcotest.(list (pair int int)) "single swap" [ (0, 1) ] swaps

let test_serial_swaps_are_edges () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let g = Grid.graph grid in
  let rng = Rng.create 1 in
  let pi = Perm.check (Rng.permutation rng 16) in
  let swaps = Token_swap.serial g (Distance.of_grid grid) pi in
  List.iter (fun (u, v) -> checkb "edge" true (Graph.mem_edge g u v)) swaps;
  checkb "realizes" true (apply_swaps 16 pi swaps)

let test_serial_respects_4x_bound_on_small () =
  (* Against the exact optimum on small instances (theoretical guarantee). *)
  let graphs = [ Graph.path 5; Graph.cycle 5; Graph.star 5;
                 Grid.graph (Grid.make ~rows:2 ~cols:3) ] in
  let rng = Rng.create 2 in
  List.iter
    (fun g ->
      let n = Graph.num_vertices g in
      let oracle = Distance.of_graph g in
      for _ = 1 to 10 do
        let pi = Perm.check (Rng.permutation rng n) in
        let opt = Exact.min_swaps g pi in
        let ats = List.length (Token_swap.serial g oracle pi) in
        checkb "within 4x of optimum" true (ats <= 4 * max 1 opt);
        checkb "at least optimum" true (ats >= opt)
      done)
    graphs

let test_serial_lower_bound () =
  let grid = Grid.make ~rows:5 ~cols:5 in
  let g = Grid.graph grid in
  let oracle = Distance.of_grid grid in
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 25) in
    let lb = Token_swap.swap_count_lower_bound oracle pi in
    let ats = List.length (Token_swap.serial g oracle pi) in
    checkb ">= sum-distance/2" true (ats >= lb)
  done

let test_serial_trials_never_worse () =
  let grid = Grid.make ~rows:5 ~cols:5 in
  let g = Grid.graph grid in
  let oracle = Distance.of_grid grid in
  let rng = Rng.create 4 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 25) in
    let one = List.length (Token_swap.serial ~trials:1 g oracle pi) in
    let four = List.length (Token_swap.serial ~trials:4 ~seed:7 g oracle pi) in
    checkb "extra trials can only help" true (four <= one)
  done

let test_serial_rejects_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Token_swap.serial: graph must be connected") (fun () ->
      ignore (Token_swap.serial g (Distance.of_graph g) (Perm.identity 4)))

let test_serial_reversal_on_path_is_optimal_class () =
  (* Reversal of P_n costs exactly n(n-1)/2 swaps (bubble sort bound); the
     4-approx should stay within 4x, and in practice lands exactly there. *)
  let g = Graph.path 6 in
  let pi = Perm.check (Array.init 6 (fun i -> 5 - i)) in
  let swaps = Token_swap.serial g (Distance.of_graph g) pi in
  checkb "within 4x of 15" true (List.length swaps <= 60);
  checkb ">= 15" true (List.length swaps >= 15);
  checkb "realizes" true (apply_swaps 6 pi swaps)

let serial_property =
  QCheck.Test.make ~name:"serial ATS realizes pi with edge swaps" ~count:150
    QCheck.(triple (Arb.int_range 1 5) (Arb.int_range 1 5) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let g = Grid.graph grid in
      let rng = Rng.create seed in
      let pi = Perm.check (Rng.permutation rng (m * n)) in
      let swaps = Token_swap.serial g (Distance.of_grid grid) pi in
      apply_swaps (m * n) pi swaps
      && List.for_all (fun (u, v) -> Graph.mem_edge g u v) swaps)

(* ----------------------------------------------------------- Parallel_ats *)

let test_parallel_realizes () =
  let rng = Rng.create 5 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let g = Grid.graph grid in
      let oracle = Distance.of_grid grid in
      List.iter
        (fun kind ->
          let pi = Generators.generate grid kind rng in
          let s = Parallel_ats.route ~trials:2 g oracle pi in
          checkb "valid" true (Schedule.is_valid g s);
          checkb "realizes" true (Schedule.realizes ~n:(m * n) s pi))
        (Generators.paper_kinds grid))
    [ (2, 2); (4, 4); (3, 5); (1, 6) ]

let test_parallel_identity_free () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let s =
    Parallel_ats.route (Grid.graph grid) (Distance.of_grid grid)
      (Perm.identity 9)
  in
  checki "no layers" 0 (Schedule.depth s)

let test_parallel_deterministic () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let g = Grid.graph grid in
  let oracle = Distance.of_grid grid in
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  let a = Parallel_ats.route ~trials:2 ~seed:3 g oracle pi in
  let b = Parallel_ats.route ~trials:2 ~seed:3 g oracle pi in
  checki "same depth for same seed" (Schedule.depth a) (Schedule.depth b);
  checki "same size for same seed" (Schedule.size a) (Schedule.size b)

let test_parallel_depth_at_least_displacement () =
  let grid = Grid.make ~rows:5 ~cols:5 in
  let g = Grid.graph grid in
  let oracle = Distance.of_grid grid in
  let rng = Rng.create 6 in
  for _ = 1 to 5 do
    let pi = Perm.check (Rng.permutation rng 25) in
    let s = Parallel_ats.route ~trials:1 g oracle pi in
    checkb "depth >= max displacement" true
      (Schedule.depth s >= Perm.max_distance (fun u v -> Distance.dist oracle u v) pi)
  done

(* ------------------------------------------------- list-based reference *)

(* The token-swapping algorithms as first written, kept as the reference
   for [Ats_core]'s flat digraph: D is rebuilt from distances on every
   query, with a fresh neighbor list filtered and sorted per visited
   vertex.  Only the argument checks, counters, spans and cancellation are
   left out. *)
module Reference = struct
  let closer_neighbors g dist dest_at priority v =
    let target = dest_at.(v) in
    if target = v then []
    else begin
      let dv = dist v target in
      let candidates =
        Graph.fold_neighbors g v
          (fun acc u -> if dist u target < dv then u :: acc else acc)
          []
      in
      List.sort (fun a b -> compare priority.(a) priority.(b)) candidates
    end

  let is_happy dist dest_at u v =
    let tu = dest_at.(u) and tv = dest_at.(v) in
    dist v tu < dist u tu && dist u tv < dist v tv

  let find_cycle g dist dest_at priority roots =
    let n = Graph.num_vertices g in
    let color = Array.make n 0 in
    (* 0 white, 1 on the current DFS path, 2 done *)
    let found = ref None in
    let rec visit path v =
      color.(v) <- 1;
      let rec try_arcs = function
        | [] -> ()
        | u :: rest -> (
            if !found = None then
              match color.(u) with
              | 0 -> (
                  visit (v :: path) u;
                  match !found with None -> try_arcs rest | Some _ -> ())
              | 1 ->
                  (* The suffix of the path from u's occurrence is the
                     cycle. *)
                  let rec collect acc = function
                    | [] -> assert false
                    | w :: ws ->
                        if w = u then u :: acc else collect (w :: acc) ws
                  in
                  found := Some (collect [] (v :: path))
              | _ -> try_arcs rest)
      in
      try_arcs (closer_neighbors g dist dest_at priority v);
      if !found = None then color.(v) <- 2
    in
    List.iter
      (fun v ->
        if !found = None && color.(v) = 0 && dest_at.(v) <> v then visit [] v)
      roots;
    !found

  let find_unhappy_arc g dist dest_at priority start =
    let rec walk prev v =
      match closer_neighbors g dist dest_at priority v with
      | [] ->
          assert (prev >= 0);
          (prev, v)
      | u :: _ -> walk v u
    in
    walk (-1) start

  (* Token_swap's trial loop. *)
  let run_trial g dist pi priority roots cap =
    let n = Graph.num_vertices g in
    let dest_at = Array.copy pi in
    let swaps = ref [] in
    let swap_count = ref 0 in
    let do_swap u v =
      let tmp = dest_at.(u) in
      dest_at.(u) <- dest_at.(v);
      dest_at.(v) <- tmp;
      swaps := (u, v) :: !swaps;
      incr swap_count
    in
    let happy_batch () =
      let used = Array.make n false in
      let batch = ref [] in
      Graph.iter_edges g (fun u v ->
          if (not used.(u)) && (not used.(v)) && is_happy dist dest_at u v
          then begin
            used.(u) <- true;
            used.(v) <- true;
            batch := (u, v) :: !batch
          end);
      List.iter (fun (u, v) -> do_swap u v) !batch;
      !batch <> []
    in
    let swap_chain vertices =
      let arr = Array.of_list vertices in
      for k = Array.length arr - 2 downto 0 do
        do_swap arr.(k) arr.(k + 1)
      done
    in
    let first_unplaced () = List.find_opt (fun v -> dest_at.(v) <> v) roots in
    let ok = ref true in
    let finished = ref false in
    while (not !finished) && !ok do
      if !swap_count > cap then ok := false
      else if happy_batch () then ()
      else
        match find_cycle g dist dest_at priority roots with
        | Some cycle -> swap_chain cycle
        | None -> (
            match first_unplaced () with
            | None -> finished := true
            | Some v ->
                let a, b = find_unhappy_arc g dist dest_at priority v in
                do_swap a b)
    done;
    if !ok then Some (List.rev !swaps) else None

  let serial ~trials ~seed g oracle pi =
    let n = Graph.num_vertices g in
    let dist u v = Distance.dist oracle u v in
    let total = Perm.total_distance dist pi in
    let cap = max (4 * n * n) ((8 * total) + 64) in
    let identity_order = List.init n (fun v -> v) in
    let rng = Rng.create seed in
    let best = ref None in
    for trial = 0 to trials - 1 do
      let priority, roots =
        if trial = 0 then (Array.init n (fun v -> v), identity_order)
        else begin
          let p = Rng.permutation rng n in
          (p, List.sort (fun a b -> compare p.(a) p.(b)) identity_order)
        end
      in
      match run_trial g dist pi priority roots cap with
      | None -> ()
      | Some swaps -> (
          match !best with
          | Some prev when List.length prev <= List.length swaps -> ()
          | _ -> best := Some swaps)
    done;
    Option.get !best

  (* Parallel_ats's trial loop. *)
  let route_one ~seed g oracle pi =
    let n = Graph.num_vertices g in
    let dist u v = Distance.dist oracle u v in
    let dest_at = Array.copy pi in
    let layers = ref [] in
    let do_swap u v =
      let tmp = dest_at.(u) in
      dest_at.(u) <- dest_at.(v);
      dest_at.(v) <- tmp
    in
    let push_layer swaps =
      List.iter (fun (u, v) -> do_swap u v) swaps;
      layers := Array.of_list swaps :: !layers
    in
    let edge_array = Array.of_list (Graph.edges g) in
    Rng.shuffle_in_place (Rng.create seed) edge_array;
    let priority = Array.init n (fun v -> v) in
    let roots = List.init n (fun v -> v) in
    let used = Array.make n false in
    let happy_layer () =
      Array.fill used 0 n false;
      let batch = ref [] in
      Array.iter
        (fun (u, v) ->
          if (not used.(u)) && (not used.(v)) && is_happy dist dest_at u v
          then begin
            used.(u) <- true;
            used.(v) <- true;
            batch := (u, v) :: !batch
          end)
        edge_array;
      !batch
    in
    let total = Perm.total_distance dist pi in
    let cap = max (4 * n * n) ((8 * total) + 64) in
    let rounds = ref 0 in
    let finished = ref false in
    while not !finished do
      incr rounds;
      if !rounds > cap then failwith "Reference.route: safety cap exceeded";
      match happy_layer () with
      | _ :: _ as batch -> push_layer batch
      | [] -> (
          match find_cycle g dist dest_at priority roots with
          | Some cycle ->
              let arr = Array.of_list cycle in
              for k = Array.length arr - 2 downto 0 do
                push_layer [ (arr.(k), arr.(k + 1)) ]
              done
          | None -> (
              let rec first_unplaced v =
                if v >= n then None
                else if dest_at.(v) <> v then Some v
                else first_unplaced (v + 1)
              in
              match first_unplaced 0 with
              | None -> finished := true
              | Some v ->
                  let a, b = find_unhappy_arc g dist dest_at priority v in
                  push_layer [ (a, b) ]))
    done;
    Schedule.compact ~n (Schedule.of_layers (List.rev !layers))

  let route ~trials ~seed g oracle pi =
    let rec best k champion =
      if k >= trials then champion
      else begin
        let candidate = route_one ~seed:(seed + k) g oracle pi in
        let champion =
          if Schedule.depth candidate < Schedule.depth champion then candidate
          else champion
        in
        best (k + 1) champion
      end
    in
    best 1 (route_one ~seed g oracle pi)
end

(* A connected graph on [n] vertices: a random spanning tree plus up to
   [n] random chords. *)
let random_connected_graph rng n =
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  let add u v =
    let e = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      edges := e :: !edges
    end
  in
  for v = 1 to n - 1 do
    add (Rng.int rng v) v
  done;
  for _ = 1 to Rng.int rng (n + 1) do
    add (Rng.int rng n) (Rng.int rng n)
  done;
  Graph.of_edges ~n !edges

(* One instance per [kind]: a grid with its closed-form oracle, a random
   connected graph with the BFS table, or a cycle with the lazy oracle. *)
let differential_instance kind rng =
  let g, oracle =
    match kind with
    | 0 ->
        let rows = Rng.int_in rng 1 7 in
        let cols = Rng.int_in rng 1 7 in
        let grid = Grid.make ~rows ~cols in
        (Grid.graph grid, Distance.of_grid grid)
    | 1 ->
        let g = random_connected_graph rng (Rng.int_in rng 2 24) in
        (g, Distance.of_graph g)
    | _ ->
        let g = Graph.cycle (Rng.int_in rng 3 24) in
        (g, Distance.of_graph_lazy g)
  in
  (g, oracle, Perm.check (Rng.permutation rng (Graph.num_vertices g)))

let differential_property =
  QCheck.Test.make ~name:"flat digraph = list-based reference" ~count:2000
    QCheck.(
      quad (int_range 0 2) (int_range 0 1_000_000) (Arb.int_range 1 5)
        (int_range 0 1000))
    (fun (kind, instance, trials, seed) ->
      let g, oracle, pi = differential_instance kind (Rng.create instance) in
      Token_swap.serial ~trials ~seed g oracle pi
      = Reference.serial ~trials ~seed g oracle pi
      && Parallel_ats.route ~trials ~seed g oracle pi
         = Reference.route ~trials ~seed g oracle pi)

(* ------------------------------------------------------------------ Exact *)

let test_exact_identity () =
  checki "zero" 0 (Exact.min_swaps (Graph.path 4) (Perm.identity 4));
  checki "zero depth" 0 (Exact.min_depth (Graph.path 4) (Perm.identity 4))

let test_exact_transposition () =
  let g = Graph.path 3 in
  checki "adjacent" 1 (Exact.min_swaps g (Perm.transposition 3 0 1));
  (* Swapping the two endpoints of P_3 takes 3 swaps. *)
  checki "endpoints" 3 (Exact.min_swaps g (Perm.transposition 3 0 2))

let test_exact_reversal_path () =
  let g = Graph.path 4 in
  let pi = Perm.check [| 3; 2; 1; 0 |] in
  checki "bubble count" 6 (Exact.min_swaps g pi);
  (* Odd-even achieves reversal of P_4 in 4 matchings; optimal is 4
     (routing number of reversal on P_n is n). *)
  checki "depth" 4 (Exact.min_depth g pi)

let test_exact_depth_leq_swaps () =
  let rng = Rng.create 7 in
  let g = Grid.graph (Grid.make ~rows:2 ~cols:3) in
  for _ = 1 to 10 do
    let pi = Perm.check (Rng.permutation rng 6) in
    checkb "depth <= swaps" true (Exact.min_depth g pi <= Exact.min_swaps g pi)
  done

let test_exact_rejects_large () =
  let g = Graph.path 11 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact: graph too large for exhaustive search")
    (fun () -> ignore (Exact.min_swaps g (Perm.identity 11)))

let test_matchings_of_path () =
  (* P_3 has edges (0,1),(1,2): non-empty matchings = {01},{12} -> 2. *)
  checki "P3" 2 (List.length (Exact.matchings_of_graph (Graph.path 3)));
  (* P_4: {01},{12},{23},{01,23} -> 4. *)
  checki "P4" 4 (List.length (Exact.matchings_of_graph (Graph.path 4)))

let exact_vs_routers_property =
  QCheck.Test.make ~name:"routers never beat the exact depth" ~count:40
    QCheck.(pair (Arb.int_range 2 3) (int_range 0 10000))
    (fun (n, seed) ->
      let grid = Grid.make ~rows:2 ~cols:n in
      let g = Grid.graph grid in
      let rng = Rng.create seed in
      let pi = Perm.check (Rng.permutation rng (2 * n)) in
      let optimal = Exact.min_depth g pi in
      let local = Qr_route.Local_grid_route.route_best_orientation grid pi in
      let ats = Parallel_ats.route ~trials:1 g (Distance.of_grid grid) pi in
      Schedule.depth local >= optimal && Schedule.depth ats >= optimal)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qr_token"
    [
      ( "token_swap",
        [
          Alcotest.test_case "identity" `Quick test_serial_identity;
          Alcotest.test_case "adjacent transposition" `Quick
            test_serial_adjacent_transposition;
          Alcotest.test_case "swaps are edges" `Quick test_serial_swaps_are_edges;
          Alcotest.test_case "4x bound" `Quick test_serial_respects_4x_bound_on_small;
          Alcotest.test_case "lower bound" `Quick test_serial_lower_bound;
          Alcotest.test_case "trials help" `Quick test_serial_trials_never_worse;
          Alcotest.test_case "rejects disconnected" `Quick
            test_serial_rejects_disconnected;
          Alcotest.test_case "path reversal" `Quick
            test_serial_reversal_on_path_is_optimal_class;
          qc serial_property;
        ] );
      ( "parallel_ats",
        [
          Alcotest.test_case "realizes" `Quick test_parallel_realizes;
          Alcotest.test_case "identity free" `Quick test_parallel_identity_free;
          Alcotest.test_case "deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "depth lower bound" `Quick
            test_parallel_depth_at_least_displacement;
        ] );
      ("ats_core", [ qc differential_property ]);
      ( "exact",
        [
          Alcotest.test_case "identity" `Quick test_exact_identity;
          Alcotest.test_case "transposition" `Quick test_exact_transposition;
          Alcotest.test_case "path reversal" `Quick test_exact_reversal_path;
          Alcotest.test_case "depth <= swaps" `Quick test_exact_depth_leq_swaps;
          Alcotest.test_case "rejects large" `Quick test_exact_rejects_large;
          Alcotest.test_case "matchings of path" `Quick test_matchings_of_path;
          qc exact_vs_routers_property;
        ] );
    ]
