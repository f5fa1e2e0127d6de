(* Tests for the engine layer: registry, unified configuration, batched
   routing, and the golden behavior of the registered engines. *)

open Qroute

(* Module aliases alone do not force the umbrella's initializer; complete
   the registry explicitly (idempotent). *)
let () = Token_engines.register ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Every test leaves the global sinks disabled so suites can run in any
   order. *)
let with_clean_sinks f =
  let finally () =
    ignore (Trace.stop ());
    Metrics.disable ();
    Metrics.reset ()
  in
  Fun.protect ~finally f

(* ------------------------------------------------------------- registry *)

let test_registry_names () =
  let names = Router_registry.names () in
  checki "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* Every engine the umbrella documents is registered under its name. *)
  List.iter
    (fun name ->
      match Router_registry.find name with
      | Some engine -> checks name name engine.Router_intf.name
      | None -> Alcotest.failf "engine %s is not registered" name)
    [ "local"; "local1"; "naive"; "ats"; "ats-serial"; "snake"; "best" ];
  (* all () follows registration order and agrees with names (). *)
  checkb "all agrees with names" true
    (List.map (fun e -> e.Router_intf.name) (Router_registry.all ()) = names)

let test_registry_get_unknown () =
  match Router_registry.get "no-such-engine" with
  | exception Invalid_argument msg ->
      checkb "message lists registry" true
        (String.length msg > 0
        && List.for_all
             (fun n ->
               (* A substring check without Str: the error must mention
                  every registered name. *)
               let re = n in
               let found = ref false in
               let nl = String.length re and ml = String.length msg in
               for i = 0 to ml - nl do
                 if String.sub msg i nl = re then found := true
               done;
               !found)
             (Router_registry.names ()))
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_registry_duplicate_rejected () =
  let local = Router_registry.get "local" in
  match Router_registry.register local with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration must raise"

(* --------------------------------------------------------------- config *)

let config_gen =
  let open QCheck.Gen in
  let discovery =
    oneof
      [
        return Local_grid_route.Doubling;
        return Local_grid_route.Whole;
        map (fun h -> Local_grid_route.Fixed_band h) (int_range 1 6);
      ]
  in
  (* [best] may race any non-empty sublist of the other engines, in any
     order. *)
  let best_of =
    let others = [ "local"; "local1"; "naive"; "snake"; "ats"; "ats-serial" ] in
    oneof
      [
        return None;
        (let* order = shuffle_l others in
         let* k = int_range 1 (List.length others) in
         return (Some (List.filteri (fun i _ -> i < k) order)));
      ]
  in
  let* discovery = discovery in
  let* assignment =
    oneofl [ Local_grid_route.Mcbbm; Local_grid_route.Arbitrary ]
  in
  let* transpose = bool in
  let* compaction = bool in
  let* ats_trials = int_range 1 9 in
  let* seed = int_range (-3) 999 in
  let* best_of = best_of in
  return
    {
      Router_config.discovery;
      assignment;
      transpose;
      compaction;
      ats_trials;
      seed;
      best_of;
    }

let config_arbitrary =
  QCheck.make ~print:Router_config.to_string config_gen

let config_roundtrip =
  QCheck.Test.make ~name:"Router_config round-trips through its text form"
    ~count:200 config_arbitrary (fun config ->
      match Router_config.of_string (Router_config.to_string config) with
      | Ok parsed -> Router_config.equal config parsed
      | Error msg -> QCheck.Test.fail_reportf "no parse: %s" msg)

(* [Router_config.to_string] as it was written with [Printf], kept as the
   reference for its direct concatenation. *)
let printf_config_text (c : Router_config.t) =
  let onoff b = if b then "on" else "off" in
  let base =
    Printf.sprintf
      "discovery=%s,assignment=%s,transpose=%s,compaction=%s,trials=%d,seed=%d"
      (match c.discovery with
      | Local_grid_route.Doubling -> "doubling"
      | Local_grid_route.Fixed_band h -> Printf.sprintf "fixed:%d" h
      | Local_grid_route.Whole -> "whole")
      (match c.assignment with
      | Local_grid_route.Mcbbm -> "mcbbm"
      | Local_grid_route.Arbitrary -> "arbitrary")
      (onoff c.transpose) (onoff c.compaction) c.ats_trials c.seed
  in
  match c.best_of with
  | None -> base
  | Some names -> base ^ ",best=" ^ String.concat "+" names

let config_text_matches_printf =
  QCheck.Test.make ~name:"config text = Printf rendering" ~count:500
    QCheck.(triple config_arbitrary int int)
    (fun (config, ats_trials, seed) ->
      List.for_all
        (fun c -> Router_config.to_string c = printf_config_text c)
        [ config; { config with ats_trials; seed } ])

(* An engine's normalized configuration drops or pins only fields the
   engine never reads, so it routes every input to the same schedule.
   Compared through [run], which routes with the configuration as given. *)
let normalize_keeps_schedules =
  QCheck.Test.make ~name:"every engine routes c and its normalization alike"
    ~count:400
    QCheck.(
      pair config_arbitrary
        (triple (Arb.int_range 1 5) (Arb.int_range 1 5) (int_range 0 10_000)))
    (fun (config, (m, n, seed)) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      let input = Router_intf.Grid_input (grid, pi) in
      List.for_all
        (fun engine ->
          Router_intf.run engine config input
          = Router_intf.run engine (engine.Router_intf.normalize config) input)
        (Router_registry.all ()))

let test_config_defaults_and_partial () =
  checkb "empty string is default" true
    (Router_config.of_string "" = Ok Router_config.default);
  checkb "partial override" true
    (Router_config.of_string "transpose=off"
    = Ok { Router_config.default with transpose = false });
  checkb "fixed_band alias accepted" true
    (Router_config.of_string "discovery=fixed_band:3"
    = Ok
        {
          Router_config.default with
          discovery = Local_grid_route.Fixed_band 3;
        });
  checks "canonical default"
    "discovery=doubling,assignment=mcbbm,transpose=on,compaction=off,trials=4,seed=0"
    (Router_config.to_string Router_config.default)

let test_config_parse_errors () =
  let rejects s =
    match Router_config.of_string s with Error _ -> true | Ok _ -> false
  in
  checkb "unknown key" true (rejects "bogus=1");
  checkb "missing =" true (rejects "transpose");
  checkb "trials=0" true (rejects "trials=0");
  checkb "trials=65" true (rejects "trials=65");
  checkb "trials=64 accepted" false (rejects "trials=64");
  checkb "duplicate best" true (rejects "best=local+naive+local");
  checkb "band 0" true (rejects "discovery=fixed:0");
  checkb "bad discovery" true (rejects "discovery=quantum");
  checkb "empty best" true (rejects "best=");
  checkb "bad seed" true (rejects "seed=x")

(* --------------------------------------------------- plan/execute + caps *)

let test_every_engine_routes () =
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create 7) (m * n)) in
      List.iter
        (fun engine ->
          let sched = Router_intf.route_grid engine grid pi in
          checkb
            (Printf.sprintf "%s %dx%d valid" engine.Router_intf.name m n)
            true
            (Schedule.is_valid (Grid.graph grid) sched);
          checkb
            (Printf.sprintf "%s %dx%d realizes" engine.Router_intf.name m n)
            true
            (Schedule.realizes ~n:(m * n) sched pi))
        (Router_registry.all ()))
    [ (1, 6); (4, 4); (3, 5) ]

(* The registry-wide routing invariant, as a property: whatever the grid
   shape and permutation, every registered engine emits a schedule that is
   executable on the grid's coupling graph and realizes the permutation. *)
let every_engine_valid_on_random_grids =
  QCheck.Test.make
    ~name:"every registry engine emits valid realizing schedules"
    ~count:40
    QCheck.(triple (Arb.int_range 1 6) (Arb.int_range 2 6) (int_range 0 10_000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      List.for_all
        (fun engine ->
          let sched = Router_intf.route_grid engine grid pi in
          Schedule.is_valid (Grid.graph grid) sched
          && Schedule.realizes ~n:(m * n) sched pi)
        (Router_registry.all ()))

let test_grid_only_rejects_graph_input () =
  let g = Graph.path 6 in
  let oracle = Distance.of_graph g in
  let pi = Perm.check [| 5; 4; 3; 2; 1; 0 |] in
  List.iter
    (fun engine ->
      if engine.Router_intf.capabilities.Router_intf.grid_only then
        match
          Router_intf.route engine (Router_intf.Graph_input (g, oracle, pi))
        with
        | exception Router_intf.Unsupported_input _ -> ()
        | _ ->
            Alcotest.failf "%s must reject Graph_input"
              engine.Router_intf.name)
    (Router_registry.all ())

let test_generic_fallback_counted () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let g = Graph.path 6 in
  let oracle = Distance.of_graph g in
  let pi = Perm.check [| 5; 4; 3; 2; 1; 0 |] in
  let sched =
    Router_registry.route_generic (Router_registry.get "local") g oracle pi
  in
  checkb "fallback schedule realizes" true
    (Schedule.realizes ~n:6 sched pi);
  (match Metrics.find_counter "router_fallbacks" with
  | Some c -> checki "one fallback" 1 (Metrics.value c)
  | None -> Alcotest.fail "router_fallbacks counter not registered");
  (* Generic-capable engines take no fallback. *)
  let sched2 =
    Router_registry.route_generic (Router_registry.get "ats") g oracle pi
  in
  checkb "ats native" true (Schedule.realizes ~n:6 sched2 pi);
  match Metrics.find_counter "router_fallbacks" with
  | Some c -> checki "still one fallback" 1 (Metrics.value c)
  | None -> Alcotest.fail "router_fallbacks counter not registered"

let test_best_of_contenders_and_winner_attr () =
  with_clean_sinks @@ fun () ->
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi = Generators.generate grid Generators.Random (Rng.create 11) in
  let best = Router_registry.get "best" in
  let config =
    { Router_config.default with best_of = Some [ "snake" ] }
  in
  Trace.start ();
  let sched = Router_intf.route_grid ~config best grid pi in
  let spans = Trace.stop () in
  let snake =
    Router_intf.route_grid (Router_registry.get "snake") grid pi
  in
  checki "best-of-snake equals snake" (Schedule.depth snake)
    (Schedule.depth sched);
  let route_span =
    List.find (fun s -> s.Trace.name = "route") spans
  in
  (match List.assoc_opt "winner" route_span.Trace.attrs with
  | Some (Trace.String w) -> checks "winner recorded" "snake" w
  | _ -> Alcotest.fail "no winner attribute on the route span");
  match List.assoc_opt "strategy" route_span.Trace.attrs with
  | Some (Trace.String s) -> checks "strategy attr" "best" s
  | _ -> Alcotest.fail "no strategy attribute on the route span"

let test_best_unknown_contender_rejected () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let pi = Perm.identity 9 in
  let config =
    { Router_config.default with best_of = Some [ "no-such" ] }
  in
  match Router_intf.route_grid ~config (Router_registry.get "best") grid pi with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown contender must raise"

let test_transpose_off_equals_local1 () =
  let grid = Grid.make ~rows:5 ~cols:8 in
  let pi = Generators.generate grid Generators.Random (Rng.create 4) in
  let off = { Router_config.default with transpose = false } in
  let a =
    Router_intf.route_grid ~config:off (Router_registry.get "local") grid pi
  in
  let b = Router_intf.route_grid (Router_registry.get "local1") grid pi in
  checkb "identical schedules" true (a = b)

let test_compaction_never_deeper () =
  let grid = Grid.make ~rows:6 ~cols:6 in
  let on = { Router_config.default with compaction = true } in
  List.iter
    (fun seed ->
      let pi = Generators.generate grid Generators.Random (Rng.create seed) in
      List.iter
        (fun engine ->
          let plain = Router_intf.route_grid engine grid pi in
          let compacted = Router_intf.route_grid ~config:on engine grid pi in
          checkb
            (Printf.sprintf "%s seed %d" engine.Router_intf.name seed)
            true
            (Schedule.depth compacted <= Schedule.depth plain
            && Schedule.realizes ~n:36 compacted pi))
        [ Router_registry.get "local"; Router_registry.get "naive" ])
    [ 0; 1; 2 ]

(* --------------------------------------------------------------- batching *)

(* The five shapes of one mixed batch, routed in order and in reverse:
   a call leaves nothing behind that changes a later call's schedule. *)
let routes_alike_in_any_order =
  QCheck.Test.make ~name:"each input routes alike in order and reversed"
    ~count:20 QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let inputs =
        List.map
          (fun (m, n) ->
            let pi = Perm.check (Rng.permutation rng (m * n)) in
            Router_intf.Grid_input (Grid.make ~rows:m ~cols:n, pi))
          [ (5, 7); (2, 2); (7, 5); (1, 9); (6, 6) ]
      in
      List.for_all
        (fun name ->
          let route = Router_intf.route (Router_registry.get name) in
          List.map route inputs = List.rev (List.map route (List.rev inputs)))
        [ "local"; "local1"; "naive"; "snake"; "best" ])

let test_counts_per_call () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pis =
    List.init 3 (fun k -> Perm.check (Rng.permutation (Rng.create k) 16))
  in
  let scheds = List.map (route grid) pis in
  (match Metrics.find_counter "route_calls" with
  | Some c -> checki "route_calls = batch size" 3 (Metrics.value c)
  | None -> Alcotest.fail "route_calls not registered");
  match Metrics.find_counter "swap_layers" with
  | Some c ->
      checki "swap_layers sums depths"
        (List.fold_left (fun acc s -> acc + Schedule.depth s) 0 scheds)
        (Metrics.value c)
  | None -> Alcotest.fail "swap_layers not registered"

(* ----------------------------------------------------------------- golden *)

(* Depth/swap pairs captured before the engines moved into the registry
   (workload: Generators.Random, default configuration).  The engine
   refactor must not change any default-config schedule. *)
let golden =
  [
    ("local", 8, 8, [| (19, 299); (19, 260); (20, 265) |]);
    ("local", 5, 9, [| (18, 161); (18, 171); (19, 157) |]);
    ("local1", 8, 8, [| (21, 299); (19, 260); (20, 265) |]);
    ("local1", 5, 9, [| (18, 161); (18, 171); (19, 157) |]);
    ("naive", 8, 8, [| (22, 289); (20, 246); (23, 261) |]);
    ("naive", 5, 9, [| (18, 161); (16, 159); (17, 153) |]);
    ("snake", 8, 8, [| (52, 1029); (56, 918); (55, 973) |]);
    ("snake", 5, 9, [| (34, 489); (43, 541); (38, 555) |]);
    ("best", 8, 8, [| (19, 299); (19, 260); (20, 265) |]);
    ("best", 5, 9, [| (18, 161); (16, 159); (17, 153) |]);
    ("ats", 8, 8, [| (87, 245); (75, 270); (60, 265) |]);
    ("ats", 5, 9, [| (41, 155); (55, 173); (46, 143) |]);
    ("ats-serial", 8, 8, [| (103, 263); (77, 254); (67, 249) |]);
    ("ats-serial", 5, 9, [| (45, 157); (49, 159); (47, 155) |]);
  ]

let test_golden_depths () =
  List.iter
    (fun (name, rows, cols, expected) ->
      let grid = Grid.make ~rows ~cols in
      let engine = Router_registry.get name in
      Array.iteri
        (fun seed (depth, swaps) ->
          let pi =
            Generators.generate grid Generators.Random (Rng.create seed)
          in
          let sched = Router_intf.route_grid engine grid pi in
          checki
            (Printf.sprintf "%s %dx%d seed %d depth" name rows cols seed)
            depth (Schedule.depth sched);
          checki
            (Printf.sprintf "%s %dx%d seed %d swaps" name rows cols seed)
            swaps (Schedule.size sched))
        expected)
    golden

(* Whole schedules, pinned by digest: depth and size alone would miss a
   reordered or relabelled layer.  One digest per (configuration, shape):
   the MD5 over the MD5s of the text form ([Reference.to_string]: one
   layer per line, swaps as "u-v") of every schedule of the corpus, which
   is the paper's four kinds plus Random, Reversal, Mirror_rows and
   Identity, six seeds each.  Recorded before the kernel
   was rewritten on flat int arrays; a change here is a changed schedule.

   The same pass also digests the wire bytes of every schedule,
   [Json.to_string (Schedule.to_json s)], which is what a [route]
   response carries; those digests were recorded before the JSON printer
   stopped going through [string_of_int].  Both are memoized per
   (configuration, shape) so the corpus is routed once. *)
let digest_shapes =
  [ (32, 32); (16, 16); (8, 8); (5, 9); (12, 7); (20, 33); (1, 6); (6, 1); (2, 2) ]

let corpus_digests =
  let memo = Hashtbl.create 128 in
  fun name config (rows, cols) ->
    match Hashtbl.find_opt memo (name, config, rows, cols) with
    | Some digests -> digests
    | None ->
        let engine = Router_registry.get name in
        let parsed = Router_config.of_string_exn config in
        let grid = Grid.make ~rows ~cols in
        let kinds =
          Generators.paper_kinds grid
          @ Generators.[ Random; Reversal; Mirror_rows; Identity ]
        in
        let scheds = Buffer.create 1024 and wire = Buffer.create 1024 in
        List.iteri
          (fun k kind ->
            for seed = 0 to 5 do
              let pi =
                Generators.generate grid kind (Rng.create ((100 * k) + seed))
              in
              let sched = Router_intf.route_grid ~config:parsed engine grid pi in
              Buffer.add_string scheds
                (Digest.string (Reference.to_string (Schedule.layers sched)));
              Buffer.add_string wire
                (Digest.string (Obs_json.to_string (Schedule.to_json sched)))
            done)
          kinds;
        let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
        let digests = (hex scheds, hex wire) in
        Hashtbl.replace memo (name, config, rows, cols) digests;
        digests

(* (engine, configuration, one digest per shape of [digest_shapes]). *)
let golden_digests =
  [
    ( "local", "",
      [
        "512675f478f2e1b91c7ea837fde177e7";
        "b8035c7d7d51528000f2bcce766e5f78";
        "9fda6642a7767d688dba58f478e568d4";
        "bfbfa8e3983ff7156fea8e6ff4537adc";
        "eea3e2ef482a4f5457bb63bfd42186a2";
        "e72300e70384866c2c315f2dfa3c4dc9";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "local1", "",
      [
        "b8d23e79e22ceb4d9a21e41ff378e61f";
        "852f1ec19ff177c164e0a797701ea9b3";
        "1b8270a20986d2a7e4277b9e900167eb";
        "6cc559e8f1dd2d082536fd380e8ef984";
        "40792813e80320d4bcd4a3f953316572";
        "3b7af573997a2d76055a82a04c74cf21";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "naive", "",
      [
        "a951be05345dfa541d75d7aa18551a58";
        "099fdc764942e8dc8c6ccb4b8d743689";
        "0bb326b00847904f02802859b1fc924c";
        "a1442e6270f1d5b0c302bb3ae8b9500e";
        "a9c06e9c05859921bfe44483b5d98fc4";
        "582d0913b8e05719974fc99f236a43a8";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "7a1eb6038915d5edb723eb45f009dd81";
      ] );
    ( "best", "",
      [
        "4be0fc98e9627c409a6046af5d431b92";
        "9f4702fb036ba050da1f44aef47986b4";
        "b8e51c3b51c2311e0d455897498d144c";
        "3222ab7d8d6ef7898e1101e712e00ccf";
        "0842b33dbfa4e4f01c14e51fbbae8df4";
        "42972448314125b0cd4d61889501db88";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "snake", "",
      [
        "db04ae334065f44c3e49627388c1029b";
        "1a6ce521507418eb3538e4d7267f1e51";
        "5f1bee41a4682afae99cd272100f0f7e";
        "2b8e68fd68ad0f8c9060e9d16f5e65b5";
        "a582295f9dd06251e98ca29370f3e50f";
        "a93eac42425ae798a2b591e812fe1d8e";
        "d6dd627edcf64d77f4363a83962fa8ed";
        "1ffb9eccf84c9a53141750fb65cb85d6";
        "de1c6a5b21a581a8178ca246d8c6f0e6";
      ] );
    ( "local", "discovery=whole",
      [
        "af8d5317b22ae0c53d89e25c4837ebb7";
        "835f51c25159fbc35e4b87dfa3551a14";
        "9a69b5f1b38c252b38989d5d6e4a011a";
        "13f55f374c03feb832791c2cb5dd16a4";
        "63238d178c452c4c302bb0f42ea3791e";
        "2aa61bc8d61b9e011e4bd47774c4345e";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "local", "discovery=fixed:3",
      [
        "2daf481fbd0ea5ed32379260f00e2714";
        "d926fbca55940ee5e6dfdffb87f8c5d2";
        "f3f4d4e53e0c888b30da032a0a8d7d22";
        "90ab305e5b2dc9000b192f2dd1be0a6f";
        "0febf78420c64967bf76cbccc7a1baf0";
        "1a56aefc20d4fb499e61491e769423ba";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "local", "assignment=arbitrary",
      [
        "0a58e1b3f7739edb4dc550f1b863d765";
        "c6da4df06a9a4dbe7097b876a946d105";
        "26f04af4d1c34bef2a2684914d72e019";
        "d2ceae66334319e30c6f0de38595e058";
        "3e9d0ed98279a6c4c7f4a10974997570";
        "7004b5340c416c77b9dfb0cc34ce28bd";
        "89564090c810946fb5cba9c200bdb65d";
        "cf944dd009dc59701f206a23c2c6fc1d";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
    ( "local", "compaction=on",
      [
        "840094807ce42bdb1e64acf868572882";
        "2075d9332c11fd433ce83311ef852484";
        "d1acae4b6704450e9587884f625cd52b";
        "93fd9ce838bf90e567c2fccfac5ea610";
        "ac2bf5de365955022911872beb8df631";
        "2a3944fd0857629d95e3a4610a85b33f";
        "b6f5c344b376a43d88bda12e68d34ebf";
        "a51316b2d1d9fbb2512d9d2e982f8370";
        "60889e2b0d17f4377b1c62d0f327fd71";
      ] );
  ]

let test_golden_digests () =
  List.iter
    (fun (name, config, digests) ->
      List.iter2
        (fun shape want ->
          checks
            (Printf.sprintf "%s [%s] %dx%d" name config (fst shape) (snd shape))
            want
            (fst (corpus_digests name config shape)))
        digest_shapes digests)
    golden_digests

(* (engine, configuration, one wire digest per shape of [digest_shapes]). *)
let golden_wire_digests =
  [
    ( "local", "",
      [
        "33d3b2c108c0d3789cddba2aced5bf06";
        "b10ec6525b43bfe476a49661f960b7f4";
        "dfc770d39d2c6331f218aedaa5d54b25";
        "4d43e3ddb07460a8521f85836751687c";
        "cceebd7e424f94ee8d53471aa3a5c7f9";
        "4ffd36b170ecaf86b5911ede048a54c3";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "local1", "",
      [
        "7f90cf868f8511f9e99f6a6a443b6809";
        "324e9e150e4ed913ca724d845db8f5b7";
        "1db3a5a06b78967e1629ae97a2a1c213";
        "29713a871e0343c63f416536f8727362";
        "63d05e680ea3002c2015d858380e8005";
        "c7b8db8b0c8e0d1ac3a9a29adafbfb3b";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "naive", "",
      [
        "e52088e98766cd89d99eee619a05ee4f";
        "e82d5d960595beb54066661fd2f70237";
        "c6702e51edd7e99bd63742f0434f5a79";
        "c14db7272131048b35cc6ef767795757";
        "c4bb36642ae86b17cb6756c89a6e263e";
        "2bfa3f0ed192815df6fd224935abd335";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "dae8c936430b949044a31e165bf76a4e";
      ] );
    ( "best", "",
      [
        "a6c121e1046aa01f24178d6392e1125a";
        "78e7198d857a7ef99e0b69bb2587c908";
        "76d8f980f686d385099ec1aa76da36d3";
        "29c539a26a81edb4b414b17133562412";
        "f0c316f13cfd05824352d5ebe33cb52f";
        "abfc1f9a4421e802df19d1b254d8dabe";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "snake", "",
      [
        "7414ee5b8f928dd31f9eca6a0405e33f";
        "1165818e012355b57b3241945ff865e2";
        "3d28e4f7b784b8ae1daf0bc562a39ea6";
        "0b916bdbce6001cbcbdbcf8a108bba59";
        "1a6897708f484a5edb1e2189119265b4";
        "3fc5e97123de7a0a0f9ab4a6a0ca0fd6";
        "6c5d91da16b180daf28fb2d7a8ba89e6";
        "924316b951a88beeb707dcfafcd8315b";
        "cd8a985e73949d0e8600470aedfb968d";
      ] );
    ( "local", "discovery=whole",
      [
        "d691a55f564e1bdc478109ab2db9de0d";
        "7135c9c59990ba6a55af9459097c75b3";
        "b3f7297f30a04be35c54a43306716e38";
        "ce4694c339081ff88d9d8e37fb891d62";
        "c73ba75d967d6fa3d46709c1119ee946";
        "746fb72e2b8a6373533a7790fb9cc675";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "local", "discovery=fixed:3",
      [
        "5b94cda3dabc38d3d51ebe13c08d1565";
        "4e9d8f92b09b8145cce3faba08398de4";
        "87330de20c72b9a055253db8f9c04d21";
        "4491d04d0a6369ab51667d91bba407a2";
        "beb0c5712a9f784235dbb5146ef9ac4a";
        "31bfebaca153ef4d79c33090d74e39db";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "local", "assignment=arbitrary",
      [
        "845a8ff5991f0e8ee853bd72afe7b474";
        "0fea18aa65071f41c3e4a1f3349f36b2";
        "e8825b1e866303fc813b05bde185c710";
        "1bdb79b8632947cca4470bb6bf6e510f";
        "172db737c5283d940dc6d26e5a2d0d34";
        "bf1f5f8cbb0928119cede155d2a8c1f0";
        "ff8e896a18bb53717224c7a5fc8facd3";
        "e08bcf47518caf0dabc6b018cbafef7b";
        "a551b144f780b79864130ea703289afd";
      ] );
    ( "local", "compaction=on",
      [
        "407a4ba764b9f4ab1e518b30faefe7df";
        "93137ea7122fa29e72120878430b8875";
        "6c1aca139f94051019abd1c711781f42";
        "fbec65e73205595a23000a00202b327c";
        "d3588ed04b2c0e40b9b21ee6b7fbd97a";
        "070368835859f8dc17796865f7759990";
        "88156293dd4dc0b79a2484da9b338aec";
        "72ab0d66cca75bb7b841e7ba287f0ccd";
        "a551b144f780b79864130ea703289afd";
      ] );
  ]

let test_golden_wire_digests () =
  List.iter
    (fun (name, config, digests) ->
      List.iter2
        (fun shape want ->
          checks
            (Printf.sprintf "%s [%s] %dx%d wire" name config (fst shape)
               (snd shape))
            want
            (snd (corpus_digests name config shape)))
        digest_shapes digests)
    golden_wire_digests

(* The token-swapping engines, pinned the same way on [ats_digest_shapes]:
   the shapes of [digest_shapes] up to 16x16, plus 12x12, the shape of the
   benchmark's ats-12x12 workload.  32x32 and 20x33 are left out: one
   32x32 ATS route takes about a second, and the corpus routes 54 of
   them per engine.  (engine, one (schedule, wire) digest pair per shape
   of [ats_digest_shapes]). *)
let ats_digest_shapes =
  [ (8, 8); (5, 9); (12, 7); (1, 6); (6, 1); (2, 2); (12, 12); (16, 16) ]

let golden_ats_digests =
  [
    ( "ats",
      [
        ("8d6e1f0cb9dd1f8d505216b4e5a5631e", "c9788be1c1b1a04170978464a5b7de35");
        ("b10c3ada2f7b411c781a58ff68809bac", "570837c8fb00b2641f5bc65fc2db0f3a");
        ("02e661111d2b67bac152ffe2de0c769d", "6c188d49f0f615329236c1a7397fbd9b");
        ("41e0376c0281594a2fae6384782f23da", "a57e60d9ea87a9cd76894bbacda85515");
        ("6c621de5ce84f7fe6fee6379be052764", "d63f5dd8690216a2468dcc424e06bbf5");
        ("7810292471815f502a2423186e0104ff", "354d8211a3403ee0fc1415f21ab1bc16");
        ("9e07bfca6d19f1c0a8a6304b2ede83d7", "cc046c77b1eaf837f8d93aa784f04490");
        ("544493ba9c693a85161273cfa33855d9", "7ab3dd34e08adf97d5799731cbf57b98");
      ] );
    ( "ats-serial",
      [
        ("7361b6d9b2be3e0f7a4bb878d99d0413", "ef493d06b40726e25b0cab3ee04ee088");
        ("74a6d3b36e063e7bde4c4f53c7713a3e", "5c6b85bce08aa47fc79972a8c98fdb09");
        ("dc1540f48cee5164aa637a6842e3f94a", "d8b5fe5382561142cf7aa3d243fddfa3");
        ("4af024eb7a69a555807989a1ec0e8fb3", "18374eb98b637455cc136e82e7a96cb0");
        ("f4951cd6b178758fefb0f9373aa4b175", "058fdd11108349196d876c2fe3fd2776");
        ("64e61692b9193be648198787578e0f2f", "346a5925114296a6151f7077bfdd28aa");
        ("53cc82fba77109d2f15a354ecf39cbeb", "6f9ce7013a199f80a143cca73a6c072a");
        ("427a90becbb388af4ceaa2824abb2e55", "b15db99f88c78fd2863692a8d014b408");
      ] );
  ]

let test_golden_ats_digests () =
  List.iter
    (fun (name, digests) ->
      List.iter2
        (fun ((rows, cols) as shape) (want_sched, want_wire) ->
          let sched, wire = corpus_digests name "" shape in
          checks (Printf.sprintf "%s %dx%d" name rows cols) want_sched sched;
          checks (Printf.sprintf "%s %dx%d wire" name rows cols) want_wire wire)
        ats_digest_shapes digests)
    golden_ats_digests

(* The allocation-lean kernel's budget: one route of fixed 32x32
   permutations.  Minor words are deterministic per input.  Before the
   kernel worked on flat int arrays the random input allocated 1_939_105
   minor words per route (and forced about 170 minor collections); while
   schedules were lists of boxed pairs it allocated 85_274, and the three
   structured inputs 43_812, 47_683 and 54_280.  Written as one flat
   array of endpoints, the schedule no longer counts as minor words: the
   random bound is a third of the boxed-pair count, the structured ones
   0.6 of theirs. *)
let test_kernel_minor_words () =
  with_clean_sinks @@ fun () ->
  let grid = Grid.make ~rows:32 ~cols:32 in
  let engine = Router_registry.get "local" in
  List.iter
    (fun (kind, depth, boxed_pair_words, fraction) ->
      let pi =
        Generators.generate grid (Option.get (Generators.of_name kind)) (Rng.create 42)
      in
      ignore (Router_intf.route_grid engine grid pi);
      let before = Gc.minor_words () in
      let sched = Router_intf.route_grid engine grid pi in
      let words = Gc.minor_words () -. before in
      Option.iter (checki (kind ^ " depth") (Schedule.depth sched)) depth;
      checkb
        (Printf.sprintf "%s: %.0f minor words <= %.0f" kind words
           (boxed_pair_words *. fraction))
        true
        (words <= boxed_pair_words *. fraction))
    [
      ("random", Some 85, 85_274., 1. /. 3.);
      ("block:8", None, 43_812., 0.6);
      ("overlap:8x0", None, 47_683., 0.6);
      ("skinny:32", None, 54_280., 0.6);
    ]

(* The token-swapping engines' budget, measured the same way on the
   benchmark's 12x12 shape.  While ATS rebuilt its swap digraph from
   distances for every chain, this input allocated 14_260_588 minor words
   per [ats] route and 3_916_421 per [ats-serial] route; the bounds are a
   twentieth and a quarter of those. *)
let test_ats_minor_words () =
  with_clean_sinks @@ fun () ->
  let grid = Grid.make ~rows:12 ~cols:12 in
  let pi = Generators.generate grid Generators.Random (Rng.create 42) in
  List.iter
    (fun (name, list_based_words, divisor) ->
      let engine = Router_registry.get name in
      ignore (Router_intf.route_grid engine grid pi);
      let before = Gc.minor_words () in
      ignore (Router_intf.route_grid engine grid pi);
      let words = Gc.minor_words () -. before in
      checkb
        (Printf.sprintf "%s: %.0f minor words <= %.0f / %.0f" name words
           list_based_words divisor)
        true
        (words <= list_based_words /. divisor))
    [ ("ats", 14_260_588., 20.); ("ats-serial", 3_916_421., 4.) ]

(* ------------------------------------------------------- transpile/sabre *)

let test_transpile_with_engine () =
  let grid = Grid.make ~rows:3 ~cols:3 in
  let c = Library.qft 9 in
  List.iter
    (fun name ->
      let engine = Router_registry.get name in
      let r = Transpile.run_grid ~engine grid c in
      checkb (name ^ " feasible") true
        (Transpile.verify_feasible (Grid.graph grid) r))
    [ "local"; "naive"; "ats" ]

let test_sabre_unwind () =
  let grid = Grid.make ~rows:3 ~cols:4 in
  let c =
    Library.random_two_qubit (Rng.create 9) ~num_qubits:12 ~gates:30
  in
  let plain = Sabre_lite.run_grid grid c in
  let unwound =
    Sabre_lite.run_grid ~unwind:(Router_registry.get "local") grid c
  in
  checkb "unwound feasible" true
    (Transpile.verify_feasible (Grid.graph grid) unwound);
  checkb "final equals initial" true
    (Layout.equal unwound.Transpile.final unwound.Transpile.initial);
  checkb "only swaps appended" true
    (Circuit.size unwound.Transpile.physical
     - Circuit.swap_count unwound.Transpile.physical
    = Circuit.size plain.Transpile.physical
      - Circuit.swap_count plain.Transpile.physical);
  checkb "unwind layers accounted" true
    (unwound.Transpile.swap_layers >= plain.Transpile.swap_layers)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "registry",
        [
          Alcotest.test_case "names unique, strategies covered" `Quick
            test_registry_names;
          Alcotest.test_case "unknown name lists registry" `Quick
            test_registry_get_unknown;
          Alcotest.test_case "duplicate rejected" `Quick
            test_registry_duplicate_rejected;
        ] );
      ( "config",
        [
          qc config_roundtrip;
          qc normalize_keeps_schedules;
          Alcotest.test_case "defaults and partial parse" `Quick
            test_config_defaults_and_partial;
          Alcotest.test_case "parse errors" `Quick test_config_parse_errors;
          qc config_text_matches_printf;
        ] );
      ( "engines",
        [
          Alcotest.test_case "every engine routes" `Quick
            test_every_engine_routes;
          qc every_engine_valid_on_random_grids;
          Alcotest.test_case "grid-only rejects graph input" `Quick
            test_grid_only_rejects_graph_input;
          Alcotest.test_case "generic fallback is explicit" `Quick
            test_generic_fallback_counted;
          Alcotest.test_case "best honors contenders, records winner" `Quick
            test_best_of_contenders_and_winner_attr;
          Alcotest.test_case "best rejects unknown contenders" `Quick
            test_best_unknown_contender_rejected;
          Alcotest.test_case "transpose=off equals local1" `Quick
            test_transpose_off_equals_local1;
          Alcotest.test_case "compaction never deeper" `Quick
            test_compaction_never_deeper;
        ] );
      ( "batching",
        [
          qc routes_alike_in_any_order;
          Alcotest.test_case "counters per call" `Quick test_counts_per_call;
        ] );
      ( "golden",
        [
          Alcotest.test_case "default-config schedules" `Quick
            test_golden_depths;
          Alcotest.test_case "whole-schedule digests" `Quick
            test_golden_digests;
          Alcotest.test_case "wire-bytes digests" `Quick
            test_golden_wire_digests;
          Alcotest.test_case "ats whole-schedule and wire digests" `Quick
            test_golden_ats_digests;
          Alcotest.test_case "kernel minor words" `Quick test_kernel_minor_words;
          Alcotest.test_case "ats minor words" `Quick test_ats_minor_words;
        ] );
      ( "transpile",
        [
          Alcotest.test_case "engine-driven transpile" `Quick
            test_transpile_with_engine;
          Alcotest.test_case "sabre unwind" `Quick test_sabre_unwind;
        ] );
    ]
