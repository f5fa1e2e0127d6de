(* Unit and property tests for Qr_util: Rng, Stats, Timer. *)

module Rng = Qr_util.Rng
module Stats = Qr_util.Stats
module Timer = Qr_util.Timer

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  checkb "different seeds, different streams" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let xa = Rng.next_int64 a in
  let xb = Rng.next_int64 b in
  check Alcotest.int64 "copies replay" xa xb

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.next_int64 a and xb = Rng.next_int64 b in
  checkb "split streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_rejects () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 500 do
    let x = Rng.int_in rng (-3) 4 in
    checkb "in closed range" true (x >= -3 && x <= 4)
  done;
  checki "singleton range" 9 (Rng.int_in rng 9 9)

let test_rng_int_covers () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  checkb "all residues appear" true (Array.for_all (fun b -> b) seen)

let test_rng_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    checkb "in range" true (x >= 0. && x < 2.5)
  done

let test_rng_bool_mixes () =
  let rng = Rng.create 17 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool rng then incr trues
  done;
  checkb "roughly balanced" true (!trues > 400 && !trues < 600)

let test_rng_permutation_valid () =
  let rng = Rng.create 19 in
  for n = 1 to 30 do
    let p = Rng.permutation rng n in
    checkb "is permutation" true (Qr_perm.Perm.is_permutation p)
  done

let test_rng_permutation_uniformish () =
  (* Over many draws of S_3, each of the 6 permutations should appear. *)
  let rng = Rng.create 23 in
  let counts = Hashtbl.create 6 in
  for _ = 1 to 600 do
    let p = Rng.permutation rng 3 in
    let key = Array.to_list p in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  checki "all 6 permutations of S_3 appear" 6 (Hashtbl.length counts);
  Hashtbl.iter (fun _ c -> checkb "no permutation starved" true (c > 40)) counts

let test_rng_shuffle_preserves_multiset () =
  let rng = Rng.create 29 in
  let a = Array.init 50 (fun i -> i mod 7) in
  let before = List.sort compare (Array.to_list a) in
  Rng.shuffle_in_place rng a;
  check Alcotest.(list int) "multiset preserved" before
    (List.sort compare (Array.to_list a))

let test_rng_sample_distinct () =
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let sample = Rng.sample_distinct rng 10 25 in
    checki "ten values" 10 (List.length sample);
    checki "distinct" 10 (List.length (List.sort_uniq compare sample));
    List.iter (fun x -> checkb "in range" true (x >= 0 && x < 25)) sample
  done;
  checki "k = n takes all" 25
    (List.length (List.sort_uniq compare (Rng.sample_distinct rng 25 25)))

let test_rng_choose () =
  let rng = Rng.create 37 in
  for _ = 1 to 100 do
    let x = Rng.choose rng [| 4; 8; 15 |] in
    checkb "member" true (List.mem x [ 4; 8; 15 ])
  done

(* ---------------------------------------------------------------- Stats *)

let feq = Alcotest.check (Alcotest.float 1e-9)

let test_stats_mean () = feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_variance () =
  feq "variance" 2.5 (Stats.variance [| 1.; 2.; 3.; 4.; 5. |]);
  feq "singleton" 0. (Stats.variance [| 42. |])

let test_stats_stddev () =
  feq "stddev of constant" 0. (Stats.stddev [| 3.; 3.; 3. |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 0. |] in
  feq "min" (-1.) lo;
  feq "max" 7. hi

let test_stats_median_odd () = feq "odd" 3. (Stats.median [| 5.; 1.; 3. |])

let test_stats_median_even () =
  feq "even interpolates" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  feq "p0" 10. (Stats.percentile xs 0.);
  feq "p100" 50. (Stats.percentile xs 100.);
  feq "p25" 20. (Stats.percentile xs 25.)

let test_stats_percentile_interpolates () =
  feq "p50 of pair" 15. (Stats.percentile [| 10.; 20. |] 50.);
  feq "p90 interpolated" 46. (Stats.percentile [| 10.; 20.; 30.; 40.; 50. |] 90.)

let test_stats_percentile_singleton () =
  feq "p0" 7. (Stats.percentile [| 7. |] 0.);
  feq "p50" 7. (Stats.percentile [| 7. |] 50.);
  feq "p100" 7. (Stats.percentile [| 7. |] 100.)

let test_stats_percentile_unsorted_negative () =
  (* Array.sort with Float.compare must order negatives correctly. *)
  let xs = [| 3.; -5.; 0.; -1.; 2. |] in
  feq "min via p0" (-5.) (Stats.percentile xs 0.);
  feq "max via p100" 3. (Stats.percentile xs 100.);
  feq "median via p50" 0. (Stats.percentile xs 50.)

let test_stats_percentile_input_untouched () =
  let xs = [| 9.; 1.; 5. |] in
  ignore (Stats.percentile xs 50.);
  check Alcotest.(array (float 0.)) "input not sorted in place"
    [| 9.; 1.; 5. |] xs

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean [||]))

let test_stats_of_ints () =
  feq "converted mean" 2. (Stats.mean (Stats.of_ints [| 1; 2; 3 |]))

let test_stats_of_list () =
  check Alcotest.(array (float 0.)) "list converted" [| 1.; 2.; 3. |]
    (Stats.of_list [ 1.; 2.; 3. ]);
  checki "empty list" 0 (Array.length (Stats.of_list []));
  feq "composes with mean" 2.5 (Stats.mean (Stats.of_list [ 2.; 3. ]))

(* ---------------------------------------------------------------- Timer *)

let test_timer_monotone () =
  let t = Timer.start () in
  let x = ref 0 in
  for i = 1 to 100000 do
    x := !x + i
  done;
  checkb "elapsed nonnegative" true (Timer.elapsed_s t >= 0.)

let test_timer_time () =
  let result, dt = Timer.time (fun () -> 2 + 2) in
  checki "result passes through" 4 result;
  checkb "time nonnegative" true (dt >= 0.)

let test_timer_repeated () =
  let per_run = Timer.time_repeated ~min_runs:3 ~min_time_s:0.0 (fun () -> ()) in
  checkb "mean per-run nonnegative" true (per_run >= 0.)

let test_timer_now_ns_monotonic () =
  let prev = ref (Timer.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Timer.now_ns () in
    checkb "never goes backwards" true (t >= !prev);
    prev := t
  done

let test_timer_now_ns_advances () =
  (* The clock must actually tick: burn some work and require progress. *)
  let t0 = Timer.now_ns () in
  let x = ref 0 in
  while Timer.now_ns () = t0 && !x < 100_000_000 do
    incr x
  done;
  checkb "clock advances" true (Timer.now_ns () > t0)

let test_timer_now_s_matches_ns () =
  let ns = Timer.now_ns () in
  let s = Timer.now_s () in
  let dt = s -. (Int64.to_float ns *. 1e-9) in
  checkb "same clock (within 1s)" true (dt >= 0. && dt < 1.)

(* The suites' shared range arbitrary draws as [QCheck.int_range] does,
   and every shrink candidate of a drawn [x] lies in [lo, x - 1]: a
   failing property over [1, k] never shrinks to a 0 it was not drawn
   from. *)
let test_arb_int_range_shrinks_in_range () =
  List.iter
    (fun (lo, hi) ->
      let arb = Arb.int_range lo hi and qc = QCheck.int_range lo hi in
      let a = Random.State.make [| lo; hi |]
      and b = Random.State.make [| lo; hi |] in
      for _ = 1 to 50 do
        Alcotest.(check int) "same draw" (QCheck.gen qc b) (QCheck.gen arb a)
      done;
      let shrink = Option.get arb.QCheck.shrink in
      for x = lo to hi do
        shrink x (fun y ->
            if y < lo || y >= x then
              Alcotest.failf "[%d, %d]: %d shrinks to %d" lo hi x y)
      done)
    [ (1, 1); (1, 6); (2, 5); (1, 64); (8, 64); (1, 1000) ]

let () =
  Alcotest.run "qr_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects" `Quick test_rng_int_rejects;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool mixes" `Quick test_rng_bool_mixes;
          Alcotest.test_case "permutation valid" `Quick test_rng_permutation_valid;
          Alcotest.test_case "permutation covers S3" `Quick
            test_rng_permutation_uniformish;
          Alcotest.test_case "shuffle multiset" `Quick
            test_rng_shuffle_preserves_multiset;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile interpolates" `Quick
            test_stats_percentile_interpolates;
          Alcotest.test_case "percentile singleton" `Quick
            test_stats_percentile_singleton;
          Alcotest.test_case "percentile negatives" `Quick
            test_stats_percentile_unsorted_negative;
          Alcotest.test_case "percentile pure" `Quick
            test_stats_percentile_input_untouched;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "of_ints" `Quick test_stats_of_ints;
          Alcotest.test_case "of_list" `Quick test_stats_of_list;
        ] );
      ( "arb",
        [
          Alcotest.test_case "int_range shrinks in range" `Quick
            test_arb_int_range_shrinks_in_range;
        ] );
      ( "timer",
        [
          Alcotest.test_case "monotone" `Quick test_timer_monotone;
          Alcotest.test_case "time" `Quick test_timer_time;
          Alcotest.test_case "repeated" `Quick test_timer_repeated;
          Alcotest.test_case "now_ns monotonic" `Quick
            test_timer_now_ns_monotonic;
          Alcotest.test_case "now_ns advances" `Quick test_timer_now_ns_advances;
          Alcotest.test_case "now_s matches now_ns" `Quick
            test_timer_now_s_matches_ns;
        ] );
    ]
