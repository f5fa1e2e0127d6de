(* Tests for Qr_bipartite (Hopcroft_karp, Bottleneck) and the test-side
   Decompose checker. *)

module HK = Qr_bipartite.Hopcroft_karp
module Bottleneck = Qr_bipartite.Bottleneck
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Matching sanity: distinct lefts, distinct rights, edges exist. *)
let matching_consistent ~edges (result : HK.result) =
  let ok = ref true in
  Array.iteri
    (fun l k ->
      if k >= 0 then begin
        let el, er = edges.(k) in
        if el <> l then ok := false;
        if result.right_match.(er) <> k then ok := false
      end)
    result.left_match;
  !ok

(* ----------------------------------------------------------- Hopcroft_karp *)

let test_hk_perfect_on_identity () =
  let edges = Array.init 5 (fun i -> (i, i)) in
  let r = HK.solve ~nl:5 ~nr:5 ~edges in
  checki "size" 5 r.size;
  checkb "consistent" true (matching_consistent ~edges r)

let test_hk_empty_graph () =
  let r = HK.solve ~nl:3 ~nr:3 ~edges:[||] in
  checki "no matching" 0 r.size

let test_hk_star_saturates_one () =
  (* All lefts point to right 0: matching size 1. *)
  let edges = Array.init 4 (fun l -> (l, 0)) in
  let r = HK.solve ~nl:4 ~nr:3 ~edges in
  checki "size 1" 1 r.size

let test_hk_known_maximum () =
  (* Bipartite graph where greedy can fail but HK must find 3:
     L0-{R0,R1}, L1-{R0}, L2-{R1,R2}. *)
  let edges = [| (0, 0); (0, 1); (1, 0); (2, 1); (2, 2) |] in
  let r = HK.solve ~nl:3 ~nr:3 ~edges in
  checki "maximum 3" 3 r.size;
  checkb "consistent" true (matching_consistent ~edges r)

let test_hk_parallel_edges () =
  let edges = [| (0, 0); (0, 0); (1, 1) |] in
  let r = HK.solve ~nl:2 ~nr:2 ~edges in
  checki "multigraph ok" 2 r.size

let test_hk_rejects_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Hopcroft_karp: endpoint out of range") (fun () ->
      ignore (HK.solve ~nl:2 ~nr:2 ~edges:[| (0, 5) |]))

let test_hk_rectangular () =
  let edges = [| (0, 0); (1, 1); (2, 2); (3, 3) |] in
  let r = HK.solve ~nl:4 ~nr:6 ~edges in
  checki "size" 4 r.size

(* Brute-force maximum matching for cross-checking. *)
let brute_max_matching ~nl ~nr ~edges =
  let by_left = Array.make nl [] in
  Array.iter (fun (l, r) -> by_left.(l) <- r :: by_left.(l)) edges;
  let used = Array.make nr false in
  let rec go l =
    if l = nl then 0
    else begin
      let skip = go (l + 1) in
      let best = ref skip in
      List.iter
        (fun r ->
          if not used.(r) then begin
            used.(r) <- true;
            let candidate = 1 + go (l + 1) in
            used.(r) <- false;
            if candidate > !best then best := candidate
          end)
        by_left.(l);
      !best
    end
  in
  go 0

let hk_matches_brute_force =
  QCheck.Test.make ~name:"HK = brute force on random bipartite graphs"
    ~count:200
    QCheck.(small_list (pair (int_bound 4) (int_bound 4)))
    (fun pairs ->
      let edges = Array.of_list pairs in
      let r = HK.solve ~nl:5 ~nr:5 ~edges in
      r.size = brute_max_matching ~nl:5 ~nr:5 ~edges
      && matching_consistent ~edges r)

(* -------------------------------------------------------------- Decompose *)

let test_check_regular () =
  let edges = [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  checki "2-regular" 2 (Decompose.check_regular ~nl:2 ~nr:2 ~edges)

let test_check_regular_rejects () =
  Alcotest.check_raises "irregular" (Invalid_argument "Decompose: not regular")
    (fun () ->
      ignore (Decompose.check_regular ~nl:2 ~nr:2 ~edges:[| (0, 0); (0, 1) |]))

let test_validate_catches_overlap () =
  let edges = [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  (* Reuse the same matching twice: must fail validation. *)
  let m = [| 0; 3 |] in
  checkb "reused edges rejected" false
    (Decompose.validate ~nl:2 ~nr:2 ~edges [ m; m ])

let test_validate_catches_incomplete () =
  let edges = [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  let m = [| 0; 3 |] in
  checkb "not all edges covered" false (Decompose.validate ~nl:2 ~nr:2 ~edges [ m ])

(* -------------------------------------------------------------- Bottleneck *)

let test_bottleneck_simple () =
  let edges =
    [
      Bottleneck.{ l = 0; r = 0; weight = 1 };
      Bottleneck.{ l = 0; r = 1; weight = 10 };
      Bottleneck.{ l = 1; r = 0; weight = 10 };
      Bottleneck.{ l = 1; r = 1; weight = 2 };
    ]
  in
  let s = Bottleneck.solve ~nl:2 ~nr:2 edges in
  checki "bottleneck" 2 s.bottleneck;
  checki "matched pairs" 2 (List.length s.pairs)

let test_bottleneck_forced_heavy () =
  (* The only perfect matching uses the heavy edge. *)
  let edges =
    [
      Bottleneck.{ l = 0; r = 0; weight = 100 };
      Bottleneck.{ l = 1; r = 0; weight = 1 };
      Bottleneck.{ l = 1; r = 1; weight = 1 };
    ]
  in
  let s = Bottleneck.solve ~nl:2 ~nr:2 edges in
  checki "forced" 100 s.bottleneck

let test_bottleneck_prefers_cardinality () =
  (* A lighter non-maximum matching must not win. *)
  let edges =
    [
      Bottleneck.{ l = 0; r = 0; weight = 1 };
      Bottleneck.{ l = 1; r = 0; weight = 50 };
      Bottleneck.{ l = 1; r = 1; weight = 50 };
    ]
  in
  let s = Bottleneck.solve ~nl:2 ~nr:2 edges in
  checki "two pairs" 2 (List.length s.pairs);
  checki "bottleneck 50" 50 s.bottleneck

let test_bottleneck_empty () =
  let s = Bottleneck.solve ~nl:2 ~nr:2 [] in
  checki "no pairs" 0 (List.length s.pairs);
  checkb "sentinel bottleneck" true (s.bottleneck = min_int)

let test_bottleneck_complete_matrix () =
  let weights = [| [| 3; 1 |]; [| 1; 3 |] |] in
  let s = Bottleneck.solve_complete ~weights in
  checki "anti-diagonal" 1 s.bottleneck

(* Threshold probes in one [solve_complete], read from the Metrics
   counter, which is on only for the call. *)
let probes_of weights =
  Qr_obs.Metrics.reset ();
  Qr_obs.Metrics.enable ();
  Fun.protect ~finally:Qr_obs.Metrics.disable @@ fun () ->
  let s = Bottleneck.solve_complete ~weights in
  let probes =
    match Qr_obs.Metrics.find_counter "bottleneck_thresholds_probed" with
    | Some c -> Qr_obs.Metrics.value c
    | None -> Alcotest.fail "bottleneck_thresholds_probed not registered"
  in
  (s, probes)

(* Every row and column minimum is 1, so the floor is 1, but rows 0 and 1
   both have their only weight-1 edge in column 0: the search has to go
   above the floor, to 9. *)
let infeasible_floor = [| [| 1; 9; 9 |]; [| 1; 9; 9 |]; [| 9; 1; 1 |] |]

let test_bottleneck_infeasible_floor () =
  let s, probes = probes_of infeasible_floor in
  checki "bottleneck above the floor" 9 s.bottleneck;
  checkb "searched past the floor probe" true (probes > 1);
  let edges =
    List.concat
      (List.init 3 (fun l ->
           List.init 3 (fun r ->
               Bottleneck.{ l; r; weight = infeasible_floor.(l).(r) })))
  in
  let reference = Bottleneck.solve ~nl:3 ~nr:3 edges in
  checkb "same matching as solve" true
    (s.left_match = reference.left_match && s.pairs = reference.pairs)

let test_bottleneck_floor_probe_only () =
  let s, probes = probes_of [| [| 3; 1 |]; [| 1; 3 |] |] in
  checki "bottleneck at the floor" 1 s.bottleneck;
  checki "one probe" 1 probes

let test_bottleneck_negative_weights () =
  let edges =
    [
      Bottleneck.{ l = 0; r = 0; weight = -5 };
      Bottleneck.{ l = 1; r = 1; weight = -3 };
    ]
  in
  let s = Bottleneck.solve ~nl:2 ~nr:2 edges in
  checki "negative ok" (-3) s.bottleneck

let bottleneck_matches_brute_force =
  QCheck.Test.make ~name:"bottleneck = brute force on random instances"
    ~count:150
    QCheck.(small_list (triple (int_bound 3) (int_bound 3) (int_bound 20)))
    (fun triples ->
      let edges =
        List.map (fun (l, r, w) -> Bottleneck.{ l; r; weight = w }) triples
      in
      let s = Bottleneck.solve ~nl:4 ~nr:4 edges in
      let brute = Bottleneck.brute_force ~nl:4 ~nr:4 edges in
      if edges = [] then s.bottleneck = min_int
      else s.bottleneck = brute)

let mcbbm_assignment_is_permutation =
  QCheck.Test.make ~name:"complete-matrix MCBBM is a perfect assignment"
    ~count:100
    QCheck.(pair (Arb.int_range 1 6) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let weights =
        Array.init n (fun _ -> Array.init n (fun _ -> Rng.int rng 50))
      in
      let s = Bottleneck.solve_complete ~weights in
      List.length s.pairs = n
      && Qr_perm.Perm.is_permutation s.left_match)

(* The dense MCBBM against its reference: [solve] on the complete edge
   list in row-major order, including rectangular and empty sides.  Each
   nonempty instance is counted by branch, from its probe count: one probe
   when the floor is feasible, more when the search goes above it. *)
let floor_hits = ref 0 and search_hits = ref 0

let complete_matches_edge_list =
  QCheck.Test.make ~name:"dense solve_complete = solve on the complete edge list"
    ~count:300
    QCheck.(triple (int_range 0 7) (int_range 0 7) (int_range 0 100000))
    (fun (nl, nr, seed) ->
      let rng = Rng.create seed in
      let range = 1 + Rng.int rng 30 in
      let weights =
        Array.init nl (fun _ -> Array.init nr (fun _ -> Rng.int rng range - 5))
      in
      let edges =
        List.concat
          (List.init nl (fun l ->
               List.init nr (fun r -> Bottleneck.{ l; r; weight = weights.(l).(r) })))
      in
      let dense, probes = probes_of weights in
      if probes = 1 then incr floor_hits
      else if probes > 1 then incr search_hits;
      let reference = Bottleneck.solve ~nl ~nr edges in
      dense.left_match = reference.left_match
      && dense.pairs = reference.pairs
      && dense.bottleneck = reference.bottleneck)

(* The property above, failing unless both branches were taken. *)
let complete_matches_on_both_branches =
  let name, speed, run = QCheck_alcotest.to_alcotest complete_matches_edge_list in
  ( name,
    speed,
    fun () ->
      floor_hits := 0;
      search_hits := 0;
      run ();
      checkb
        (Printf.sprintf "floor branch taken (%d)" !floor_hits)
        true (!floor_hits > 0);
      checkb
        (Printf.sprintf "search branch taken (%d)" !search_hits)
        true (!search_hits > 0) )

(* The array core against the tuple adapter's historical contract: the
   same matching, whatever the workspace has served before. *)
let max_matching_reuses_workspace =
  QCheck.Test.make ~name:"max_matching on a reused workspace = solve" ~count:200
    QCheck.(pair (Arb.int_range 1 8) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ws = HK.workspace () in
      List.for_all
        (fun ne ->
          let edges = Array.init ne (fun _ -> (Rng.int rng n, Rng.int rng n)) in
          let src = Array.map fst edges and dst = Array.map snd edges in
          let left_match = Array.make n 7 and right_match = Array.make n 7 in
          let size = HK.max_matching ws ~nl:n ~nr:n ~ne ~src ~dst ~left_match ~right_match in
          let reference = HK.solve ~nl:n ~nr:n ~edges in
          size = reference.size
          && left_match = reference.left_match
          && right_match = reference.right_match)
        [ 3 * n; n; 0; 2 * n ])

(* Hopcroft–Karp as first written, as a reference: every phase,
   the first included, starts with the layered BFS from the free left
   vertices.  Adjacency lists each left vertex's edges in input order. *)
module Reference_hk = struct
  let max_matching ~nl ~nr ~ne ~src ~dst =
    let offsets = Array.make (nl + 1) 0 in
    for k = 0 to ne - 1 do
      offsets.(src.(k) + 1) <- offsets.(src.(k) + 1) + 1
    done;
    for l = 0 to nl - 1 do
      offsets.(l + 1) <- offsets.(l + 1) + offsets.(l)
    done;
    let cursor = Array.sub offsets 0 nl and store = Array.make ne 0 in
    for k = 0 to ne - 1 do
      let l = src.(k) in
      store.(cursor.(l)) <- k;
      cursor.(l) <- cursor.(l) + 1
    done;
    let left_match = Array.make nl (-1) and right_match = Array.make nr (-1) in
    let dist = Array.make nl max_int and queue = Array.make nl 0 in
    let bfs () =
      let tail = ref 0 in
      for l = 0 to nl - 1 do
        if left_match.(l) = -1 then begin
          dist.(l) <- 0;
          queue.(!tail) <- l;
          incr tail
        end
        else dist.(l) <- max_int
      done;
      let head = ref 0 and found = ref false in
      while !head < !tail do
        let l = queue.(!head) in
        incr head;
        for k = offsets.(l) to offsets.(l + 1) - 1 do
          match right_match.(dst.(store.(k))) with
          | -1 -> found := true
          | e ->
              let l' = src.(e) in
              if dist.(l') = max_int then begin
                dist.(l') <- dist.(l) + 1;
                queue.(!tail) <- l';
                incr tail
              end
        done
      done;
      !found
    in
    let rec augment l =
      let k = ref offsets.(l) and done_ = ref false in
      while (not !done_) && !k < offsets.(l + 1) do
        let e = store.(!k) in
        let r = dst.(e) in
        let advance =
          match right_match.(r) with
          | -1 -> true
          | e' -> dist.(src.(e')) = dist.(l) + 1 && augment src.(e')
        in
        if advance then begin
          left_match.(l) <- e;
          right_match.(r) <- e;
          done_ := true
        end
        else incr k
      done;
      if not !done_ then dist.(l) <- max_int;
      !done_
    in
    let size = ref 0 in
    while bfs () do
      for l = 0 to nl - 1 do
        if left_match.(l) = -1 && augment l then incr size
      done
    done;
    (!size, left_match, right_match)
end

(* The core against the reference on random edge lists: empty ones,
   unequal sides, isolated vertices and repeated edges, all through one
   workspace and into caller arrays holding stale values. *)
let max_matching_matches_reference =
  let ws = HK.workspace () in
  QCheck.Test.make ~name:"max_matching = reference Hopcroft-Karp" ~count:500
    QCheck.(
      quad (int_range 0 7) (int_range 0 7) (int_range 0 24) (int_range 0 100000))
    (fun (nl, nr, ne, seed) ->
      let rng = Rng.create seed in
      let ne = if nl = 0 || nr = 0 then 0 else ne in
      let edges = Array.init ne (fun _ -> (Rng.int rng nl, Rng.int rng nr)) in
      (* Repeat a few edges, so parallel edges are common. *)
      for k = 1 to ne - 1 do
        if Rng.int rng 4 = 0 then edges.(k) <- edges.(Rng.int rng k)
      done;
      let src = Array.map fst edges and dst = Array.map snd edges in
      let left_match = Array.make nl 7 and right_match = Array.make nr 7 in
      let size = HK.max_matching ws ~nl ~nr ~ne ~src ~dst ~left_match ~right_match in
      (size, left_match, right_match) = Reference_hk.max_matching ~nl ~nr ~ne ~src ~dst)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qr_bipartite"
    [
      ( "hopcroft_karp",
        [
          Alcotest.test_case "identity perfect" `Quick test_hk_perfect_on_identity;
          Alcotest.test_case "empty" `Quick test_hk_empty_graph;
          Alcotest.test_case "star" `Quick test_hk_star_saturates_one;
          Alcotest.test_case "known maximum" `Quick test_hk_known_maximum;
          Alcotest.test_case "parallel edges" `Quick test_hk_parallel_edges;
          Alcotest.test_case "rejects range" `Quick test_hk_rejects_range;
          Alcotest.test_case "rectangular" `Quick test_hk_rectangular;
          qc hk_matches_brute_force;
          qc max_matching_reuses_workspace;
          qc max_matching_matches_reference;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "check_regular" `Quick test_check_regular;
          Alcotest.test_case "check_regular rejects" `Quick
            test_check_regular_rejects;
          Alcotest.test_case "validate catches overlap" `Quick
            test_validate_catches_overlap;
          Alcotest.test_case "validate catches incomplete" `Quick
            test_validate_catches_incomplete;
        ] );
      ( "bottleneck",
        [
          Alcotest.test_case "simple" `Quick test_bottleneck_simple;
          Alcotest.test_case "forced heavy" `Quick test_bottleneck_forced_heavy;
          Alcotest.test_case "cardinality first" `Quick
            test_bottleneck_prefers_cardinality;
          Alcotest.test_case "empty" `Quick test_bottleneck_empty;
          Alcotest.test_case "complete matrix" `Quick test_bottleneck_complete_matrix;
          Alcotest.test_case "negative weights" `Quick
            test_bottleneck_negative_weights;
          Alcotest.test_case "infeasible floor" `Quick
            test_bottleneck_infeasible_floor;
          Alcotest.test_case "feasible floor: one probe" `Quick
            test_bottleneck_floor_probe_only;
          qc bottleneck_matches_brute_force;
          qc mcbbm_assignment_is_permutation;
          complete_matches_on_both_branches;
        ] );
    ]
