(* Tests for the routing service: wire protocol codecs, the plan cache,
   deadlines, session dispatch, and the channel serving loop — all without
   opening a real socket (the loop is driven over an in-memory pipe pair). *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Trace = Qr_obs.Trace
module Trace_context = Qr_obs.Trace_context
module Log = Qr_obs.Log
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry
module P = Qr_server.Protocol
module Plan_cache = Qr_server.Plan_cache
module Session = Qr_server.Session
module Server = Qr_server.Server

(* Session.create completes the registry, but the protocol tests touch it
   first; make registration explicit (idempotent). *)
let () = Qr_token.Engines.register ()

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

(* Error code of a response envelope, [None] for success responses. *)
let error_code_of line =
  match P.response_result (Json.of_string_exn line) with
  | Ok _ -> None
  | Error err -> Some err.P.code

let result_of line =
  match P.response_result (Json.of_string_exn line) with
  | Ok result -> result
  | Error err -> Alcotest.failf "error response: %s" err.P.message

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" name (Json.to_string doc)

(* ------------------------------------------------------------- protocol *)

let all_codes =
  [
    P.Parse_error; P.Invalid_request; P.Unknown_method; P.Invalid_params;
    P.Unsupported_input; P.Deadline_exceeded; P.Overloaded; P.Internal_error;
  ]

let test_error_code_names () =
  List.iter
    (fun code ->
      let name = P.code_to_string code in
      checkb ("snake_case: " ^ name) true
        (String.lowercase_ascii name = name && not (String.contains name ' '));
      checkb ("round-trips: " ^ name) true
        (P.code_of_string name = Some code))
    all_codes;
  checkb "unknown name" true (P.code_of_string "teapot" = None)

let test_request_of_json () =
  let parse text = P.request_of_json (Json.of_string_exn text) in
  (match parse {|{"id": 7, "method": "route", "params": {"x": 1}, "deadline_ms": 50}|} with
  | Ok req ->
      checkb "id" true (req.P.id = Json.Int 7);
      checks "method" "route" req.P.meth;
      checkb "params" true (Json.member "x" req.P.params = Some (Json.Int 1));
      checkb "deadline" true (req.P.deadline_ms = Some 50)
  | Error err -> Alcotest.failf "rejected valid envelope: %s" err.P.message);
  (match parse {|{"method": "health"}|} with
  | Ok req ->
      checkb "missing id is null" true (req.P.id = Json.Null);
      checkb "missing params is {}" true (req.P.params = Json.Obj []);
      checkb "no deadline" true (req.P.deadline_ms = None)
  | Error err -> Alcotest.failf "rejected minimal envelope: %s" err.P.message);
  (match parse {|{"id": "abc", "method": "health"}|} with
  | Ok req -> checkb "string id" true (req.P.id = Json.String "abc")
  | Error _ -> Alcotest.fail "string ids are valid");
  let rejected text =
    match parse text with
    | Error { P.code = P.Invalid_request; _ } -> true
    | _ -> false
  in
  checkb "missing method" true (rejected {|{"id": 1}|});
  checkb "non-string method" true (rejected {|{"id": 1, "method": 3}|});
  checkb "bool id" true (rejected {|{"id": true, "method": "health"}|});
  checkb "non-object params" true
    (rejected {|{"method": "health", "params": [1]}|});
  checkb "negative deadline" true
    (rejected {|{"method": "health", "deadline_ms": -1}|});
  checkb "non-int deadline" true
    (rejected {|{"method": "health", "deadline_ms": "soon"}|})

let test_request_id_recovery () =
  let id text = P.request_id (Json.of_string_exn text) in
  checkb "int id" true (id {|{"id": 3, "bogus": true}|} = Json.Int 3);
  checkb "string id" true (id {|{"id": "x"}|} = Json.String "x");
  checkb "bad id type" true (id {|{"id": [1]}|} = Json.Null);
  checkb "non-object" true (id "[1,2]" = Json.Null)

let test_request_envelope_roundtrip () =
  let req =
    P.request ~id:(Json.Int 9) ~deadline_ms:25 ~meth:"route"
      (Json.Obj [ ("k", Json.Int 1) ])
  in
  (match P.request_of_json (P.request_to_json req) with
  | Ok again -> checkb "round-trip" true (again = req)
  | Error err -> Alcotest.failf "round-trip rejected: %s" err.P.message);
  checkb "non-object params rejected" true
    (try
       ignore (P.request ~meth:"route" (Json.Int 1));
       false
     with Invalid_argument _ -> true)

let test_response_envelopes () =
  let ok = P.ok_response ~id:(Json.Int 1) (Json.Bool true) in
  checkb "ok destructures" true (P.response_result ok = Ok (Json.Bool true));
  let err = P.error_response ~id:(Json.Int 1) (P.error P.Overloaded "full") in
  (match P.response_result err with
  | Error { P.code = P.Overloaded; message; _ } -> checks "message" "full" message
  | _ -> Alcotest.fail "expected overloaded error");
  (match P.response_result (Json.Obj [ ("id", Json.Int 1) ]) with
  | Error { P.code = P.Internal_error; _ } -> ()
  | _ -> Alcotest.fail "malformed envelope decodes as internal_error");
  (* The envelope writer gives the tree's bytes around any result. *)
  let trace =
    Result.get_ok
      (Trace_context.of_traceparent
         "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
  in
  let result = Json.Obj [ ("depth", Json.Int 3); ("x", Json.String "a\"b") ] in
  List.iter
    (fun (trace, server_ms, id) ->
      let buf = Buffer.create 16 in
      P.ok_response_to_buffer buf ?trace ?server_ms ~id (fun buf ->
          Json.to_buffer buf result);
      checks "writer = tree"
        (Json.to_string (P.ok_response ?trace ?server_ms ~id result))
        (Buffer.contents buf))
    [
      (None, None, Json.Null);
      (Some trace, None, Json.Int (-7));
      (None, Some 0.25, Json.String "\xf0\x9f\x98\x80\"");
      (Some trace, Some 12., Json.Int max_int);
    ]

let test_grid_codec () =
  let grid = Grid.make ~rows:3 ~cols:5 in
  checks "shape" {|{"rows":3,"cols":5}|} (Json.to_string (P.grid_to_json grid));
  (match P.grid_of_json (P.grid_to_json grid) with
  | Ok g -> checkb "round-trip" true (Grid.rows g = 3 && Grid.cols g = 5)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  let bad text = Result.is_error (P.grid_of_json (Json.of_string_exn text)) in
  checkb "missing cols" true (bad {|{"rows": 3}|});
  checkb "zero rows" true (bad {|{"rows": 0, "cols": 5}|});
  checkb "non-object" true (bad "[3,5]");
  (* With [vertices], rows x cols must match, overflow included. *)
  let sized vertices text =
    P.grid_of_json ~vertices (Json.of_string_exn text)
  in
  checkb "matching size" true (Result.is_ok (sized 15 {|{"rows": 3, "cols": 5}|}));
  checkb "size mismatch" true
    (sized 4 {|{"rows": 3, "cols": 5}|}
    = Error "grid: 3x5 does not have 4 vertices");
  checkb "wrapping product" true
    (Result.is_error
       (sized 0 {|{"rows": 4294967296, "cols": 4294967296}|}));
  checkb "overflow without vertices" true
    (bad {|{"rows": 4294967296, "cols": 4294967296}|})

let test_perm_codec () =
  let pi = Perm.check [| 2; 0; 1 |] in
  checks "list form" "[2,0,1]" (Json.to_string (P.perm_to_json pi));
  (match P.perm_of_json ~expect_size:3 (P.perm_to_json pi) with
  | Ok again -> checkb "round-trip" true (Perm.equal pi again)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  let error ?expect_size text =
    match P.perm_of_json ?expect_size (Json.of_string_exn text) with
    | Ok _ -> "accepted"
    | Error msg -> msg
  in
  let not_ints = "perm: expected a list of integers"
  and not_perm = "perm: not a permutation of 0..n-1" in
  checks "repeated image" not_perm (error "[0,0,1]");
  checks "out of range" not_perm (error "[0,3,1]");
  checks "negative entry" not_perm (error "[0,-1,1]");
  checks "non-int entry" not_ints (error {|[0,"x",1]|});
  checks "float entry" not_ints (error "[0,1.0,2]");
  checks "size mismatch" "perm: expected 4 entries, got 3"
    (error ~expect_size:4 "[2,0,1]");
  checks "non-int before size mismatch" not_ints
    (error ~expect_size:4 {|[2,0,"x"]|});
  checks "size mismatch before permutation" "perm: expected 2 entries, got 3"
    (error ~expect_size:2 "[0,0,0]");
  checks "non-list" not_ints (error {|{"perm": [0,1]}|});
  (match P.perm_of_json (Json.of_string_exn "[]") with
  | Ok empty -> checki "empty list" 0 (Array.length empty)
  | Error msg -> Alcotest.failf "empty list: %s" msg)

let test_config_codec () =
  (* Every key at its default, in the object form, is the default. *)
  (match
     P.config_of_json
       (Json.of_string_exn
          {|{"discovery": "doubling", "assignment": "mcbbm", "transpose": true, "compaction": false, "trials": 4, "seed": 0}|})
   with
  | Ok c -> checkb "defaults" true (c = Router_config.default)
  | Error msg -> Alcotest.failf "default rejected: %s" msg);
  (* A subset of keys patches the defaults, exactly like the text form. *)
  (match P.config_of_json (Json.of_string_exn {|{"transpose": false}|}) with
  | Ok c ->
      checks "object subset = text form"
        (Router_config.to_string
           (Router_config.of_string_exn "transpose=off"))
        (Router_config.to_string c)
  | Error msg -> Alcotest.failf "subset rejected: %s" msg);
  (* The canonical text form is accepted as a plain string. *)
  (match P.config_of_json (Json.String "trials=7,seed=3") with
  | Ok c ->
      checks "string form"
        (Router_config.to_string (Router_config.of_string_exn "trials=7,seed=3"))
        (Router_config.to_string c)
  | Error msg -> Alcotest.failf "string form rejected: %s" msg);
  checkb "unknown key" true
    (Result.is_error (P.config_of_json (Json.of_string_exn {|{"warp": 9}|})));
  (* A value of the wrong JSON type names the type expected; a value of
     the right type gets the text form's message. *)
  let error text =
    match P.config_of_json (Json.of_string_exn text) with
    | Ok _ -> Alcotest.failf "%s accepted" text
    | Error msg -> msg
  in
  checks "bad value type" "config: trials: expected an integer"
    (error {|{"trials": "many"}|});
  checks "bad boolean" "config: transpose: expected a boolean"
    (error {|{"transpose": "off"}|});
  checks "bad string" "config: discovery: expected a string"
    (error {|{"discovery": 3}|});
  checks "bad assignment"
    {|config: assignment: "hungarian" (expected mcbbm or arbitrary)|}
    (error {|{"assignment": "hungarian"}|});
  checks "empty best" "config: best: expected a non-empty list of engine names"
    (error {|{"best": []}|});
  checks "best name holding '+'"
    "config: best: expected a non-empty list of engine names"
    (error {|{"best": ["local+naive"]}|});
  checks "best list" "config: best: \"nosuch\" is not an engine best can race"
    (error {|{"best": ["local", "nosuch"]}|})

let test_engines_json () =
  let doc = P.engines_json () in
  match member_exn "engines" doc with
  | Json.List entries ->
      checki "one entry per registered engine"
        (List.length (Router_registry.names ()))
        (List.length entries);
      let names =
        List.map
          (fun e ->
            match member_exn "name" e with
            | Json.String s -> s
            | _ -> Alcotest.fail "name must be a string")
          entries
      in
      List.iter
        (fun required ->
          checkb ("lists " ^ required) true (List.mem required names))
        [ "local"; "naive"; "best"; "ats" ];
      List.iter
        (fun e ->
          (match member_exn "inputs" e with
          | Json.String ("grid" | "any") -> ()
          | j -> Alcotest.failf "bad inputs: %s" (Json.to_string j));
          checkb "transpose is a bool" true
            (match member_exn "transpose" e with
            | Json.Bool _ -> true
            | _ -> false))
        entries
  | _ -> Alcotest.fail "expected an engines list"

(* ----------------------------------------------------------- plan cache *)

let sched_a = Schedule.of_layers [ [| (0, 1) |] ]
let sched_b = Schedule.of_layers [ [| (2, 3) |]; [| (0, 1) |] ]

let key_for ?(engine = "local") ?(config = Router_config.default) seed =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let pi = Perm.check (Qr_util.Rng.permutation (Qr_util.Rng.create seed) 4) in
  Plan_cache.key ~grid ~pi ~engine ~config

let test_cache_hit_miss () =
  let cache = Plan_cache.create ~capacity:4 () in
  let k = key_for 0 in
  checkb "cold lookup misses" true (Plan_cache.find cache k = None);
  Plan_cache.add cache k sched_a;
  checkb "warm lookup hits" true (Plan_cache.find cache k = Some sched_a);
  checki "hits" 1 (Plan_cache.hits cache);
  checki "misses" 1 (Plan_cache.misses cache);
  checki "length" 1 (Plan_cache.length cache);
  let s1, cached1 = Plan_cache.find_or_add cache (key_for 1) (fun () -> sched_b) in
  checkb "find_or_add computes on miss" true ((s1, cached1) = (sched_b, false));
  let s2, cached2 =
    Plan_cache.find_or_add cache (key_for 1) (fun () ->
        Alcotest.fail "must not recompute on a hit")
  in
  checkb "find_or_add returns stored value" true ((s2, cached2) = (sched_b, true))

let test_cache_lru_eviction () =
  let cache = Plan_cache.create ~capacity:2 () in
  let ka = key_for 10 and kb = key_for 11 and kc = key_for 12 in
  Plan_cache.add cache ka sched_a;
  Plan_cache.add cache kb sched_b;
  (* Touch [ka] so [kb] is the least recently used entry. *)
  checkb "refresh a" true (Plan_cache.find cache ka <> None);
  Plan_cache.add cache kc sched_a;
  checki "capacity kept" 2 (Plan_cache.length cache);
  checki "one eviction" 1 (Plan_cache.evictions cache);
  checkb "lru (b) evicted" true (Plan_cache.find cache kb = None);
  checkb "recent (a) kept" true (Plan_cache.find cache ka <> None);
  checkb "new (c) kept" true (Plan_cache.find cache kc <> None)

let test_cache_key_discriminates () =
  let cache = Plan_cache.create () in
  Plan_cache.add cache (key_for 0) sched_a;
  checkb "different engine" true
    (Plan_cache.find cache (key_for ~engine:"naive" 0) = None);
  checkb "different config" true
    (Plan_cache.find cache
       (key_for ~config:(Router_config.of_string_exn "transpose=off") 0)
    = None);
  (* Same quadruple built from fresh values still hits (keys are by value,
     not identity). *)
  checkb "fresh equal key hits" true (Plan_cache.find cache (key_for 0) <> None);
  (* One array under 4x8 and under 8x4, and two arrays one transposition
     apart, give distinct keys. *)
  let pi = Qr_util.Rng.permutation (Qr_util.Rng.create 3) 32 in
  let key rows cols pi =
    Plan_cache.key ~grid:(Grid.make ~rows ~cols) ~pi ~engine:"local"
      ~config:Router_config.default
  in
  checkb "4x8 and 8x4" true (key 4 8 pi <> key 8 4 pi);
  let swapped = Array.copy pi in
  swapped.(0) <- pi.(31);
  swapped.(31) <- pi.(0);
  checkb "one transposition apart" true (key 4 8 pi <> key 4 8 swapped)

(* Keys are equal exactly when rows, cols, permutation, engine and
   configuration all are.  The same 32-entry arrays are shared by four
   shapes (4x8 and 8x4 among them), and the variants of a permutation
   include ones a single transposition away. *)
let key_equality_property =
  let shapes = [| (4, 8); (8, 4); (2, 16); (32, 1) |] in
  let engines = [| "local"; "local1"; "best"; "naive" |] in
  let configs =
    [|
      Router_config.default;
      Router_config.of_string_exn "transpose=off";
      Router_config.of_string_exn "seed=1";
    |]
  in
  let base = Qr_util.Rng.permutation (Qr_util.Rng.create 7) 32 in
  let perm (k, i, j) =
    let p = Array.copy base in
    if k > 0 then begin
      (* k = 1: one transposition of [base]; k = 2: two disjoint ones. *)
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t;
      if k > 1 then begin
        let a = (i + 1) mod 32 and b = (j + 2) mod 32 in
        let t = p.(a) in
        p.(a) <- p.(b);
        p.(b) <- t
      end
    end;
    p
  in
  let side =
    QCheck.(
      quad (int_bound 3) (triple (int_bound 2) (int_bound 31) (int_bound 31))
        (int_bound 3) (int_bound 2))
  in
  QCheck.Test.make ~name:"key equal iff all parts equal" ~count:2000
    (QCheck.pair side side)
    (fun ((s1, p1, e1, c1), (s2, p2, e2, c2)) ->
      let key s p e c =
        let rows, cols = shapes.(s) in
        Plan_cache.key ~grid:(Grid.make ~rows ~cols) ~pi:(perm p)
          ~engine:engines.(e) ~config:configs.(c)
      in
      key s1 p1 e1 c1 = key s2 p2 e2 c2
      = (s1 = s2 && perm p1 = perm p2 && e1 = e2 && c1 = c2))

let test_cache_zero_capacity () =
  let cache = Plan_cache.create ~capacity:0 () in
  let k = key_for 0 in
  let _, cached = Plan_cache.find_or_add cache k (fun () -> sched_a) in
  checkb "never caches" true (not cached);
  let _, cached = Plan_cache.find_or_add cache k (fun () -> sched_a) in
  checkb "still misses" true (not cached);
  checki "stores nothing" 0 (Plan_cache.length cache);
  checkb "negative capacity rejected" true
    (try
       ignore (Plan_cache.create ~capacity:(-1) ());
       false
     with Invalid_argument _ -> true)

let test_cache_clear_keeps_counters () =
  let cache = Plan_cache.create () in
  Plan_cache.add cache (key_for 0) sched_a;
  ignore (Plan_cache.find cache (key_for 0));
  Plan_cache.clear cache;
  checki "emptied" 0 (Plan_cache.length cache);
  checki "hits kept" 1 (Plan_cache.hits cache);
  checkb "entries gone" true (Plan_cache.find cache (key_for 0) = None)

let test_cache_metrics_counters () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let cache = Plan_cache.create ~capacity:1 () in
  ignore (Plan_cache.find_or_add cache (key_for 0) (fun () -> sched_a));
  ignore (Plan_cache.find_or_add cache (key_for 0) (fun () -> sched_a));
  Plan_cache.add cache (key_for 1) sched_b;
  let counter name =
    match Metrics.find_counter name with
    | Some c -> Metrics.value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  checki "global hits" 1 (counter "plan_cache_hits");
  checki "global misses" 1 (counter "plan_cache_misses");
  checki "global evictions" 1 (counter "plan_cache_evictions")

(* -------------------------------------------------------------- session *)

let route_line ?(id = 1) () =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0], "engine": "local"}}|}
    id

let test_session_repeated_route_hits_cache () =
  (* Acceptance: a repeated identical route request is answered from the
     plan cache — hit counter increments, response bytes identical. *)
  let session = Session.create () in
  let first = Session.handle_line session (route_line ()) in
  let second = Session.handle_line session (route_line ()) in
  checki "one miss" 1 (Plan_cache.misses (Session.cache session));
  checki "hit counter incremented" 1 (Plan_cache.hits (Session.cache session));
  let body line =
    let result = result_of line in
    (member_exn "cached" result, Json.to_string (member_exn "schedule" result))
  in
  let cached1, sched1 = body first and cached2, sched2 = body second in
  checkb "first is a miss" true (cached1 = Json.Bool false);
  checkb "second is a hit" true (cached2 = Json.Bool true);
  checks "identical schedule bytes" sched1 sched2;
  checki "served" 2 (Session.requests_served session)

(* Route a 4x4 reversal with [engine] once per config (a JSON fragment
   spliced into [params]) through a fresh session; the replies' results
   and the session's plan cache. *)
let route_reversals engine configs =
  let session = Session.create () in
  let line id config =
    Printf.sprintf
      {|{"id": %d, "method": "route", "params": {"grid": {"rows": 4, "cols": 4}, "perm": [15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0], "engine": "%s"%s}}|}
      id engine config
  in
  let replies =
    List.mapi
      (fun i config -> result_of (Session.handle_line session (line (i + 1) config)))
      configs
  in
  (replies, Session.cache session)

(* Three requests that differ only in fields [engine] does not read are
   one plan: one miss, two hits, one entry, one schedule. *)
let check_one_plan engine configs =
  let replies, cache = route_reversals engine configs in
  checkb (engine ^ ": one miss, then two hits") true
    (List.map (member_exn "cached") replies
    = [ Json.Bool false; Json.Bool true; Json.Bool true ]);
  (match List.map (fun r -> Json.to_string (member_exn "schedule" r)) replies with
  | [ a; b; c ] ->
      checks "second schedule" a b;
      checks "third schedule" a c
  | _ -> Alcotest.fail "three replies expected");
  checki "misses" 1 (Plan_cache.misses cache);
  checki "hits" 2 (Plan_cache.hits cache);
  checki "entries" 1 (Plan_cache.length cache)

(* [naive] reads no discovery, assignment or transpose field. *)
let test_session_normalized_cache_key () =
  check_one_plan "naive"
    [
      "";
      {|, "config": {"discovery": "whole"}|};
      {|, "config": {"assignment": "arbitrary"}|};
    ]

(* [ats-serial] runs one identity-priority trial, which draws nothing from
   the RNG, so its seed is not read. *)
let test_session_ats_serial_cache_key () =
  check_one_plan "ats-serial"
    [
      {|, "config": {"seed": 0}|};
      {|, "config": {"seed": 7}|};
      {|, "config": {"seed": 12345}|};
    ]

(* [best] keys on what its contenders read: the default contenders named
   explicitly are the default, [snake] reads no discovery, and a value
   [naive] pins is not read either. *)
let test_session_best_cache_key () =
  let replies, cache =
    route_reversals "best"
      [
        "";
        {|, "config": {"best": ["local", "naive"]}|};
        {|, "config": {"best": ["snake"], "discovery": "whole"}|};
        {|, "config": {"best": ["snake"]}|};
      ]
  in
  checkb "miss, hit, miss, hit" true
    (List.map (member_exn "cached") replies
    = [ Json.Bool false; Json.Bool true; Json.Bool false; Json.Bool true ]);
  (match List.map (fun r -> Json.to_string (member_exn "schedule" r)) replies with
  | [ a; b; c; d ] ->
      checks "default contenders named" a b;
      checks "snake without discovery" c d
  | _ -> Alcotest.fail "four replies expected");
  checki "misses" 2 (Plan_cache.misses cache);
  checki "hits" 2 (Plan_cache.hits cache);
  checki "entries" 2 (Plan_cache.length cache);
  check_one_plan "best"
    [
      {|, "config": {"best": ["naive"]}|};
      {|, "config": {"best": ["naive"], "transpose": false}|};
      {|, "config": {"best": ["naive"], "discovery": "whole"}|};
    ]

let test_session_zero_deadline () =
  (* Acceptance: a 0 ms deadline returns the deadline_exceeded envelope. *)
  let session = Session.create () in
  let response =
    Session.handle_line session
      {|{"id": 9, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0]}, "deadline_ms": 0}|}
  in
  checkb "deadline_exceeded" true
    (error_code_of response = Some P.Deadline_exceeded);
  checkb "id echoed" true
    (Json.member "id" (Json.of_string_exn response) = Some (Json.Int 9));
  checki "nothing cached" 0 (Plan_cache.length (Session.cache session))

let test_session_error_envelopes () =
  let session = Session.create () in
  let code line = error_code_of (Session.handle_line session line) in
  checkb "non-json" true (code "not json" = Some P.Parse_error);
  checkb "invalid envelope" true (code {|{"id": 4}|} = Some P.Invalid_request);
  checkb "unknown method" true
    (code {|{"id": 4, "method": "teleport"}|} = Some P.Unknown_method);
  checkb "bad params" true
    (code {|{"id": 4, "method": "route", "params": {"grid": {"rows": 2, "cols": 2}, "perm": [0,0,0,0]}}|}
    = Some P.Invalid_params);
  checkb "unknown engine" true
    (code {|{"id": 4, "method": "route", "params": {"grid": {"rows": 2, "cols": 2}, "perm": [3,2,1,0], "engine": "warp"}}|}
    = Some P.Invalid_params);
  (* The id from an invalid envelope is still echoed. *)
  let response = Session.handle_line session {|{"id": "abc"}|} in
  checkb "id recovered" true
    (Json.member "id" (Json.of_string_exn response) = Some (Json.String "abc"))

(* A grid whose size does not match the request is rejected before its
   coupling graph is built: 1500x1500 would be 2.25M vertices and ~27M
   words of edge lists, and 2^32 x 2^32 wraps rows * cols to 0. *)
let test_session_oversized_grid () =
  let session = Session.create () in
  let rejected line =
    let before = Gc.minor_words () in
    let code = error_code_of (Session.handle_line session line) in
    let words = Gc.minor_words () -. before in
    checkb (line ^ " is invalid_params") true (code = Some P.Invalid_params);
    checkb
      (Printf.sprintf "%.0f minor words: grid not built" words)
      true (words < 100_000.)
  in
  rejected
    {|{"id":1,"method":"route","params":{"grid":{"rows":1500,"cols":1500},"perm":[1,0,2,3]}}|};
  rejected
    {|{"id":2,"method":"route","params":{"grid":{"rows":4294967296,"cols":4294967296},"perm":[1,0,2,3]}}|};
  rejected
    {|{"id":3,"method":"route_batch","params":{"grid":{"rows":1500,"cols":1500},"perms":[[1,0,2,3]]}}|};
  rejected
    {|{"id":4,"method":"route_batch","params":{"grid":{"rows":1500,"cols":1500},"perms":[]}}|};
  rejected
    {|{"id":5,"method":"transpile","params":{"grid":{"rows":4294967296,"cols":4294967296},"circuit":"qubits 4\ncx 0 1\n"}}|};
  rejected
    {|{"id":6,"method":"transpile","params":{"grid":{"rows":1500,"cols":1500},"circuit":"qubits 4\ncx 0 1\n"}}|};
  (* A later perm of the wrong length is still caught per perm. *)
  checkb "second perm checked" true
    (error_code_of
       (Session.handle_line session
          {|{"id":7,"method":"route_batch","params":{"grid":{"rows":2,"cols":2},"perms":[[1,0,2,3],[1,0]]}}|})
    = Some P.Invalid_params)

(* A string id with an escaped surrogate pair comes back as valid UTF-8,
   the 4-byte encoding of U+1F600. *)
(* A request's config names how many routing runs it costs: one per ATS
   trial and one per [best] contender.  Past the limits in
   [Router_config.check] it is refused before any routing: a trillion
   trials would hold a worker for weeks, and 200 copies of one contender
   on 8x8 took about 200 times as long as one.  The cheap cases go first, so a
   missing check fails the test instead of hanging it. *)
let test_session_config_limits () =
  let session = Session.create () in
  let rejected line =
    let before = Gc.minor_words () in
    let code = error_code_of (Session.handle_line session line) in
    let words = Gc.minor_words () -. before in
    checkb "invalid_params" true (code = Some P.Invalid_params);
    checkb
      (Printf.sprintf "%.0f minor words: nothing routed" words)
      true (words < 100_000.)
  in
  let route_2x2 engine config =
    Printf.sprintf
      {|{"id":1,"method":"route","params":{"grid":{"rows":2,"cols":2},"perm":[1,0,3,2],"engine":"%s","config":%s}}|}
      engine config
  in
  rejected (route_2x2 "ats" {|{"trials":65}|});
  rejected (route_2x2 "ats" {|"trials=65"|});
  rejected (route_2x2 "best" {|{"best":["local","naive","local"]}|});
  rejected (route_2x2 "best" {|"best=nosuch"|});
  rejected (route_2x2 "best" {|{"best":["nosuch"]}|});
  rejected (route_2x2 "best" {|"best=best"|});
  rejected (route_2x2 "best" {|{"best":["local","best"]}|});
  rejected (route_2x2 "ats" {|"best=nosuch"|});
  rejected (route_2x2 "ats" {|{"trials":0}|});
  rejected (route_2x2 "ats" {|{"trials":1000000000000}|});
  let perm = String.concat "," (List.init 64 (fun v -> string_of_int (63 - v))) in
  let copies = String.concat "," (List.init 200 (fun _ -> {|"ats"|})) in
  rejected
    (Printf.sprintf
       {|{"id":2,"method":"route","params":{"grid":{"rows":8,"cols":8},"perm":[%s],"engine":"best","config":{"best":[%s]}}}|}
       perm copies);
  checkb "trials=64 accepted" true
    (error_code_of
       (Session.handle_line session (route_2x2 "ats" {|{"trials":64}|}))
    = None)

let test_session_echoes_astral_id () =
  let session = Session.create () in
  let response =
    Session.handle_line session {|{"id":"\ud83d\ude00","method":"engines"}|}
  in
  checkb "id is U+1F600 in UTF-8" true
    (Json.member "id" (Json.of_string_exn response)
    = Some (Json.String "\xf0\x9f\x98\x80"));
  checkb "raw bytes on the wire" true
    (String.starts_with ~prefix:"{\"id\":\"\xf0\x9f\x98\x80\"" response)

let test_session_route_batch () =
  let config = { Session.default_config with Session.max_batch = 2 } in
  let session = Session.create ~config () in
  let response =
    Session.handle_line session
      {|{"id": 1, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 2}, "perms": [[3,2,1,0], [3,2,1,0]], "engine": "local"}}|}
  in
  let result = result_of response in
  (match member_exn "cached" result with
  | Json.List [ Json.Bool false; Json.Bool true ] -> ()
  | j -> Alcotest.failf "expected [false,true], got %s" (Json.to_string j));
  (match member_exn "schedules" result with
  | Json.List [ s1; s2 ] ->
      checks "batch items share the plan" (Json.to_string s1) (Json.to_string s2);
      checkb "schedules decode" true (Result.is_ok (Schedule.of_json s1))
  | j -> Alcotest.failf "expected two schedules, got %s" (Json.to_string j));
  (* One over max_batch is shed with the overloaded error. *)
  let over =
    Session.handle_line session
      {|{"id": 2, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 2}, "perms": [[3,2,1,0], [2,3,0,1], [1,0,3,2]]}}|}
  in
  checkb "overloaded" true (error_code_of over = Some P.Overloaded)

let test_session_transpile () =
  let session = Session.create () in
  let response =
    Session.handle_line session
      {|{"id": 1, "method": "transpile", "params": {"grid": {"rows": 2, "cols": 2}, "circuit": "qubits 4\nh 0\ncx 0 3\ncx 1 2\n", "engine": "local"}}|}
  in
  let result = result_of response in
  (match member_exn "physical" result with
  | Json.String text ->
      checkb "physical circuit parses back" true
        (Result.is_ok (Qr_circuit.Qasm.parse text))
  | _ -> Alcotest.fail "physical must be circuit text");
  checkb "swap accounting present" true
    (match member_exn "swaps" result with Json.Int n -> n >= 0 | _ -> false);
  (* Qubit-count mismatches are parameter errors, not crashes. *)
  let bad =
    Session.handle_line session
      {|{"id": 2, "method": "transpile", "params": {"grid": {"rows": 2, "cols": 2}, "circuit": "qubits 2\ncx 0 1\n"}}|}
  in
  checkb "qubit mismatch" true (error_code_of bad = Some P.Invalid_params);
  let nan_angle =
    Session.handle_line session
      {|{"id": 3, "method": "transpile", "params": {"grid": {"rows": 2, "cols": 2}, "circuit": "qubits 4\nrz nan 0\n"}}|}
  in
  checkb "non-finite angle" true
    (error_code_of nan_angle = Some P.Invalid_params)

let test_session_introspection_methods () =
  let session = Session.create () in
  (* engines: exactly the protocol payload. *)
  let engines = result_of (Session.handle_line session {|{"id": 1, "method": "engines"}|}) in
  checkb "engines payload" true (Json.equal engines (P.engines_json ()));
  (* health: status/requests/plan_cache stats. *)
  ignore (Session.handle_line session (route_line ()));
  let health = result_of (Session.handle_line session {|{"id": 2, "method": "health"}|}) in
  checkb "status ok" true (member_exn "status" health = Json.String "ok");
  (match member_exn "requests" health with
  | Json.Int n -> checki "requests counted" 3 n
  | _ -> Alcotest.fail "requests must be an int");
  (match member_exn "plan_cache" health with
  | Json.Obj _ as pc ->
      checkb "cache misses reported" true
        (member_exn "misses" pc = Json.Int 1)
  | _ -> Alcotest.fail "plan_cache must be an object");
  (* metrics: a Metrics.to_json snapshot. *)
  let metrics = result_of (Session.handle_line session {|{"id": 3, "method": "metrics"}|}) in
  checkb "metrics sections" true
    (Json.member "counters" metrics <> None
    && Json.member "histograms" metrics <> None)

let test_session_shared_cache () =
  (* Two sessions over one cache: the socket server's arrangement. *)
  let cache = Plan_cache.create () in
  let s1 = Session.create ~cache () in
  let s2 = Session.create ~cache () in
  let r1 = result_of (Session.handle_line s1 (route_line ())) in
  let r2 = result_of (Session.handle_line s2 (route_line ())) in
  checkb "first connection plans" true (member_exn "cached" r1 = Json.Bool false);
  checkb "second connection hits" true (member_exn "cached" r2 = Json.Bool true)

let test_overloaded_response_line () =
  let line = Session.overloaded_response_line {|{"id": 42, "method": "route"}|} in
  checkb "overloaded code" true (error_code_of line = Some P.Overloaded);
  checkb "id echoed" true
    (Json.member "id" (Json.of_string_exn line) = Some (Json.Int 42));
  let junk = Session.overloaded_response_line "garbage" in
  checkb "null id for junk" true
    (Json.member "id" (Json.of_string_exn junk) = Some Json.Null)

(* ------------------------------------------------------ telemetry plane *)

let tp_example = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
let tid_example = "0123456789abcdef0123456789abcdef"

let test_protocol_trace_codec () =
  (* Envelope round-trip with a trace context attached. *)
  let trace = Result.get_ok (Trace_context.of_traceparent tp_example) in
  let req =
    P.request ~id:(Json.Int 1) ~trace ~meth:"health" (Json.Obj [])
  in
  let json = P.request_to_json req in
  checkb "trace field rendered" true
    (Json.member "trace" json = Some (Json.String tp_example));
  (match P.request_of_json json with
  | Ok again ->
      checkb "trace round-trips" true
        (match again.P.trace with
        | Some t -> Trace_context.equal t trace
        | None -> false)
  | Error err -> Alcotest.failf "round-trip rejected: %s" err.P.message);
  (* Malformed trace strings are invalid_request, not silently dropped. *)
  let rejected text =
    match P.request_of_json (Json.of_string_exn text) with
    | Error { P.code = P.Invalid_request; _ } -> true
    | _ -> false
  in
  checkb "garbage trace" true
    (rejected {|{"method": "health", "trace": "zz"}|});
  checkb "all-zero trace" true
    (rejected
       {|{"method": "health", "trace": "00-00000000000000000000000000000000-0123456789abcdef-01"}|});
  checkb "non-string trace" true
    (rejected {|{"method": "health", "trace": 7}|})

let test_response_trace_meta () =
  let trace = Result.get_ok (Trace_context.of_traceparent tp_example) in
  let resp =
    P.ok_response ~trace ~server_ms:1.25 ~id:(Json.Int 1) (Json.Bool true)
  in
  (match P.response_trace resp with
  | Some t -> checkb "trace decodes" true (Trace_context.equal t trace)
  | None -> Alcotest.fail "missing trace on response");
  checkb "server_ms decodes" true (P.response_server_ms resp = Some 1.25);
  (* Error responses carry the same metadata. *)
  let err =
    P.error_response ~trace ~server_ms:0.5 ~id:Json.Null
      (P.error P.Overloaded "full")
  in
  checkb "error response trace" true (P.response_trace err <> None);
  (* And both fields are optional. *)
  let bare = P.ok_response ~id:(Json.Int 1) (Json.Bool true) in
  checkb "no trace by default" true (P.response_trace bare = None);
  checkb "no server_ms by default" true (P.response_server_ms bare = None)

let traced_route_line ?(id = 1) () =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0], "engine": "local"}, "trace": "%s"}|}
    id tp_example

let test_session_trace_echo () =
  (* Tentpole acceptance: the caller's trace context comes back in the
     envelope, a server_ms timing rides along, and every span of the
     request tree is stamped with the trace_id. *)
  with_clean_sinks @@ fun () ->
  let session = Session.create () in
  Trace.start ();
  let response = Session.handle_line session (traced_route_line ()) in
  let spans = Trace.stop () in
  let doc = Json.of_string_exn response in
  checkb "trace echoed verbatim" true
    (Json.member "trace" doc = Some (Json.String tp_example));
  (match P.response_server_ms doc with
  | Some ms -> checkb "server_ms nonnegative" true (ms >= 0.)
  | None -> Alcotest.fail "missing server_ms");
  checkb "spans recorded" true (List.length spans > 0);
  List.iter
    (fun (s : Trace.span) ->
      checkb (s.Trace.name ^ " carries trace_id") true
        (List.assoc_opt "trace_id" s.Trace.attrs
        = Some (Trace.String tid_example)))
    spans;
  (* The adoption is scoped to the request: a traceless request after it
     produces unstamped spans. *)
  Trace.start ();
  ignore (Session.handle_line session (route_line ~id:2 ()));
  let after = Trace.stop () in
  checkb "context restored" true
    (List.for_all
       (fun (s : Trace.span) ->
         not (List.mem_assoc "trace_id" s.Trace.attrs))
       after)

(* Capture access-log records; restores global log state afterwards. *)
let with_access_log f =
  let captured = ref [] in
  Log.set_sink (Some (fun line -> captured := line :: !captured));
  Log.set_level Log.Info;
  Log.set_format Log.Json;
  let finally () =
    Log.set_sink None;
    Log.set_level Log.Warn;
    Log.set_format Log.Logfmt
  in
  Fun.protect ~finally (fun () -> f captured)

let access_records captured =
  List.rev_map Json.of_string_exn !captured
  |> List.filter (fun doc ->
         Json.member "msg" doc = Some (Json.String "request"))

let test_session_access_log () =
  with_clean_sinks @@ fun () ->
  with_access_log @@ fun captured ->
  let session = Session.create () in
  let response = Session.handle_line session (traced_route_line ()) in
  ignore (Session.handle_line session "not json");
  match access_records captured with
  | [ ok_rec; err_rec ] ->
      checkb "method" true
        (Json.member "method" ok_rec = Some (Json.String "route"));
      checkb "status ok" true
        (Json.member "status" ok_rec = Some (Json.String "ok"));
      checkb "trace_id correlates" true
        (Json.member "trace_id" ok_rec = Some (Json.String tid_example));
      checkb "cache outcome" true
        (Json.member "cached" ok_rec = Some (Json.Bool false));
      checkb "bytes is the response length" true
        (Json.member "bytes" ok_rec
        = Some (Json.Int (String.length response)));
      checkb "ms nonnegative" true
        (match Json.member "ms" ok_rec with
        | Some (Json.Float ms) -> ms >= 0.
        | _ -> false);
      checkb "parse error logged" true
        (Json.member "status" err_rec = Some (Json.String "parse_error"));
      checkb "unparsed method is ?" true
        (Json.member "method" err_rec = Some (Json.String "?"))
  | other -> Alcotest.failf "expected 2 access records, got %d" (List.length other)

let test_session_health_telemetry () =
  let session = Session.create ~inflight_probe:(fun () -> 5) () in
  let health =
    result_of (Session.handle_line session {|{"id": 1, "method": "health"}|})
  in
  checkb "uptime_ms" true
    (match member_exn "uptime_ms" health with
    | Json.Float ms -> ms >= 0.
    | _ -> false);
  checkb "inflight from probe" true
    (member_exn "inflight" health = Json.Int 5);
  (match member_exn "plan_cache" health with
  | pc ->
      checkb "hits" true (Json.member "hits" pc <> None);
      checkb "misses" true (Json.member "misses" pc <> None);
      checkb "evictions" true (Json.member "evictions" pc <> None))

let test_session_stats_method () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let session = Session.create () in
  ignore (Session.handle_line session (route_line ()));
  let stats =
    result_of (Session.handle_line session {|{"id": 2, "method": "stats"}|})
  in
  let health = member_exn "health" stats in
  checkb "health inside" true (Json.member "status" health <> None);
  checkb "plan_cache inside" true
    (match member_exn "plan_cache" stats with
    | pc -> member_exn "misses" pc = Json.Int 1);
  let metrics = member_exn "metrics" stats in
  checkb "metrics inside" true (Json.member "counters" metrics <> None);
  (* The stats call refreshes the process gauges. *)
  (match Json.member "gauges" metrics with
  | Some gauges ->
      checkb "process uptime gauge" true
        (match Json.member "process_uptime_seconds" gauges with
        | Some (Json.Float s) -> s >= 0.
        | _ -> false);
      checkb "rss gauge" true
        (match Json.member "process_max_rss_kb" gauges with
        | Some (Json.Float kb) -> kb > 0.
        | _ -> false)
  | None -> Alcotest.fail "missing gauges")

let test_metrics_file_snapshot () =
  (* The stdio loop writes a parseable Prometheus exposition at EOF. *)
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let path = Filename.temp_file "qr_metrics" ".prom" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  let reqs = Unix.out_channel_of_descr req_write in
  output_string reqs (route_line () ^ "\n");
  close_out reqs;
  let ic = Unix.in_channel_of_descr req_read in
  let oc = Unix.out_channel_of_descr resp_write in
  Server.serve_channels ~metrics_file:path ic oc;
  close_out oc;
  close_in ic;
  let responses = Unix.in_channel_of_descr resp_read in
  ignore (input_line responses);
  close_in responses;
  let content = In_channel.with_open_text path In_channel.input_all in
  let lines = String.split_on_char '\n' content in
  checkb "histogram type line" true
    (List.mem "# TYPE server_request_ms histogram" lines);
  checkb "requests counted" true (List.mem "server_requests 1" lines);
  checkb "cumulative +Inf present" true
    (List.mem "server_request_ms_bucket{le=\"+Inf\"} 1" lines);
  checkb "no torn tmp file left" true (not (Sys.file_exists (path ^ ".tmp")))

(* ---------------------------------------------------------- reply bytes *)

(* A reply with its [server_ms] field cut out: the envelope's last field
   and the only bytes that differ between runs of the same corpus. *)
let strip_server_ms reply =
  let marker = {|,"server_ms":|} in
  let m = String.length marker in
  let rec last i =
    if i < 0 then reply
    else if String.sub reply i m = marker then String.sub reply 0 i ^ "}"
    else last (i - 1)
  in
  last (String.length reply - m)

(* A Random permutation of the [rows] x [cols] grid as a JSON list. *)
let random_perm_text rows cols seed =
  let grid = Grid.make ~rows ~cols in
  let pi =
    Qr_perm.Generators.generate grid Qr_perm.Generators.Random
      (Qr_util.Rng.create seed)
  in
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int pi)) ^ "]"

(* Every registry engine on six shapes, each route twice (a miss, then a
   hit), batches with cached, fresh and deadline-expired items, ids
   that need escaping, a trace echo, the non-routing methods and the
   error kinds a session answers itself. *)
let reply_corpus () =
  let perm_text rows cols = random_perm_text rows cols ((100 * rows) + cols) in
  let route ?(extra = "") id rows cols engine =
    Printf.sprintf
      {|{"id":%s,"method":"route","params":{"grid":{"rows":%d,"cols":%d},"perm":%s,"engine":"%s"}%s}|}
      id rows cols (perm_text rows cols) engine extra
  in
  let next = ref 0 in
  let fresh_id () =
    incr next;
    string_of_int !next
  in
  let routes =
    List.concat_map
      (fun (rows, cols) ->
        List.concat_map
          (fun engine ->
            let miss = route (fresh_id ()) rows cols engine in
            let hit = route (fresh_id ()) rows cols engine in
            [ miss; hit ])
          (Router_registry.names ()))
      [ (1, 1); (1, 6); (6, 1); (4, 4); (5, 9); (16, 16) ]
  in
  let reversal n =
    "[" ^ String.concat "," (List.init n (fun v -> string_of_int (n - 1 - v))) ^ "]"
  in
  let batch ?(extra = "") id rows cols engine perms =
    Printf.sprintf
      {|{"id":%s,"method":"route_batch","params":{"grid":{"rows":%d,"cols":%d},"perms":[%s],"engine":"%s"}%s}|}
      id rows cols (String.concat "," perms) engine extra
  in
  routes
  @ [
      batch "900" 4 4 "local" [ perm_text 4 4; reversal 16; perm_text 4 4 ];
      batch "901" 16 16 "best" [ reversal 256; perm_text 16 16 ];
      batch ~extra:{|,"deadline_ms":0|} "902" 5 9 "best"
        [ perm_text 5 9; reversal 45 ];
      route {|"quote\"d"|} 1 6 "local";
      route {|"back\\slash"|} 6 1 "naive";
      route {|"\ud83d\ude00"|} 4 4 "snake";
      route "\"\xf0\x9f\x98\x80\"" 5 9 "local";
      route ~extra:(Printf.sprintf {|,"trace":"%s"|} tp_example) "903" 4 4
        "best";
      route ~extra:{|,"deadline_ms":0|} "904" 5 9 "ats";
      {|{"id":905,"method":"engines"}|};
      {|{"id":906,"method":"transpile","params":{"grid":{"rows":2,"cols":2},"circuit":"qubits 4\nh 0\ncx 0 3\ncx 1 2\n","engine":"local"}}|};
      "not json";
      {|{"id":907}|};
      {|{"id":908,"method":"teleport"}|};
      {|{"method":"route","params":{"grid":{"rows":2,"cols":2},"perm":[0,0,0,0]}}|};
      {|{"id":909,"method":"route","params":{"grid":{"rows":2,"cols":2},"perm":[3,2,1,0],"engine":"warp"}}|};
      {|{"id":910,"method":"route","params":{"grid":{"rows":3,"cols":2},"perm":[3,2,1,0]}}|};
      batch "911" 1 1 "local" (List.init 65 (fun _ -> "[0]"));
    ]

(* One digest over the replies to [reply_corpus], recorded before
   replies were written straight into a buffer: rendering must keep
   every byte. *)
let test_reply_bytes_digest () =
  with_clean_sinks @@ fun () ->
  let session = Session.create () in
  let replies =
    List.map
      (fun line -> strip_server_ms (Session.handle_line session line))
      (reply_corpus ())
  in
  checki "replies" 102 (List.length replies);
  checks "reply-bytes digest" "dc4c4b3a3ea2051ff267421e118a9a01"
    (Digest.to_hex (Digest.string (String.concat "\n" replies)))

let random_route_line ?(engine = "best") rows cols seed =
  Printf.sprintf
    {|{"id":1,"method":"route","params":{"grid":{"rows":%d,"cols":%d},"perm":%s,"engine":"%s"}}|}
    rows cols
    (random_perm_text rows cols seed)
    engine

(* A 16x16 plan-cache hit allocated 65,396 minor words when its reply was
   built as a [Json.t] tree, rendered, and the grid rebuilt per request,
   and 6,460 while its request was still read as a tree and its key
   digested.  The reply (20 KB) is one string on the major heap and not
   counted. *)
let test_cache_hit_minor_words () =
  with_clean_sinks @@ fun () ->
  let line = random_route_line 16 16 42 in
  let session = Session.create () in
  ignore (Session.handle_line session line);
  let before = Gc.minor_words () in
  let reply = Session.handle_line session line in
  let words = Gc.minor_words () -. before in
  checkb "a hit" true (member_exn "cached" (result_of reply) = Json.Bool true);
  checkb
    (Printf.sprintf "%.0f minor words <= 2_000" words)
    true (words <= 2_000.)

(* The session reuses the last request's grid while the shape repeats:
   every reply equals a fresh session's, and the size check still runs
   before a reused grid is handed out. *)
let test_grid_reuse_across_shapes () =
  with_clean_sinks @@ fun () ->
  let lines =
    List.map
      (fun (rows, cols, seed) -> random_route_line ~engine:"local" rows cols seed)
      [ (4, 4, 1); (2, 8, 2); (4, 4, 3); (16, 1, 4) ]
  in
  let session = Session.create () in
  List.iter
    (fun line ->
      checks "same reply as a fresh session"
        (strip_server_ms (Session.handle_line (Session.create ()) line))
        (strip_server_ms (Session.handle_line session line)))
    lines;
  let code line = error_code_of (Session.handle_line session line) in
  checkb "good line first" true (code (random_route_line 4 4 5) = None);
  checkb "same shape, 8 entries" true
    (code
       {|{"id":2,"method":"route","params":{"grid":{"rows":4,"cols":4},"perm":[1,0,3,2,5,4,7,6]}}|}
    = Some P.Invalid_params);
  checkb "same shape, batch of 2x2 perms" true
    (code
       {|{"id":3,"method":"route_batch","params":{"grid":{"rows":4,"cols":4},"perms":[[1,0,3,2]]}}|}
    = Some P.Invalid_params);
  checkb "still routes the shape" true (code (random_route_line 4 4 6) = None)

(* ----------------------------------------------------- route line reader *)

(* A request line as its members, so a generator can shuffle and pad
   them: each key is written between quotes as given (escapes and all),
   and an object's second list follows its shuffled first in order, for
   a repeated key the tree must read after the original. *)
type doc = Text of string | Members of (string * doc) list * (string * doc) list

let ws_gen = QCheck.Gen.oneofl [ ""; ""; ""; " "; "\t"; "\n"; "\r"; "  " ]

let rec render_gen doc =
  let open QCheck.Gen in
  match doc with
  | Text text -> return text
  | Members (shuffled, tail) ->
      let* order = shuffle_l shuffled in
      let* parts =
        flatten_l
          (List.map
             (fun (key, value) ->
               let* a = ws_gen and* b = ws_gen and* c = ws_gen and* d = ws_gen in
               let* value = render_gen value in
               return (Printf.sprintf "%s\"%s\"%s:%s%s%s" a key b c value d))
             (order @ tail))
      in
      return ("{" ^ String.concat "," parts ^ "}")

(* An integer as a JSON text the tree reads to it: its digits, or with
   up to 20 leading zeros, and 0 also as "-0". *)
let spelling_gen i =
  let open QCheck.Gen in
  let text = string_of_int i in
  let sign, digits =
    if i < 0 then ("-", String.sub text 1 (String.length text - 1))
    else ("", text)
  in
  frequency
    ([
       (6, return text);
       (1, map (fun z -> sign ^ String.make z '0' ^ digits) (int_range 1 20));
     ]
    @ if i = 0 then [ (1, return "-0") ] else [])

(* A JSON list of the items' texts, with whitespace around every
   token. *)
let list_text_gen items =
  let open QCheck.Gen in
  let* parts =
    flatten_l
      (List.map
         (fun item ->
           let* a = ws_gen and* b = ws_gen and* text = item in
           return (a ^ text ^ b))
         items)
  in
  let* pad = ws_gen in
  return ("[" ^ pad ^ String.concat "," parts ^ "]")

let int_list_gen ints = list_text_gen (List.map spelling_gen ints)

type line_id = Id_int of int | Id_string of string | Id_null | Id_absent

(* What a generated [route] line asks for; [perm] may be no permutation,
   or of the wrong length, and [rows] x [cols] need not fit it. *)
type route_spec = {
  id : line_id;
  rows : int;
  cols : int;
  perm : int list;
  engine : string option;
  deadline_ms : int option;
  trace : bool;
}

(* Changes the reader refuses and the tree reads as if they were not
   there: an escape that decodes to the plain text, a member the tree
   ignores, or a repeated key after the one the tree takes. *)
type twin =
  | Escaped_method
  | Escaped_key
  | Escaped_id
  | Escaped_engine
  | Extra_param
  | Extra_grid_member
  | Extra_member
  | Repeated_method
  | Repeated_id

let twins spec =
  [ Escaped_method; Escaped_key; Extra_param; Extra_grid_member; Extra_member;
    Repeated_method ]
  @ (match spec.id with
    | Id_string s when s <> "" && s.[0] >= 'a' && s.[0] <= 'z' -> [ Escaped_id ]
    | _ -> [])
  @ (if spec.engine <> None then [ Escaped_engine ] else [])
  @ if spec.id <> Id_absent then [ Repeated_id ] else []

(* [\u00XX] for the first byte of [s]. *)
let escape_first s =
  Printf.sprintf "\\u%04x%s" (Char.code s.[0])
    (String.sub s 1 (String.length s - 1))

let spec_doc ?twin spec perm_text =
  let quoted s = Text ("\"" ^ s ^ "\"") in
  let only flag members = if twin = Some flag then members else [] in
  let grid =
    Members
      ( [
          ("rows", Text (string_of_int spec.rows));
          ("cols", Text (string_of_int spec.cols));
        ],
        only Extra_grid_member [ ("depth", Text "1") ] )
  in
  let engine =
    match spec.engine with
    | None -> []
    | Some name when twin = Some Escaped_engine ->
        [ ("engine", quoted (escape_first name)) ]
    | Some name -> [ ("engine", quoted name) ]
  in
  let perm_key = if twin = Some Escaped_key then "p\\u0065rm" else "perm" in
  let params =
    Members
      ( [ ("grid", grid); (perm_key, Text perm_text) ]
        @ engine
        @ only Extra_param [ ("x", Text "null") ],
        [] )
  in
  let id =
    match spec.id with
    | Id_int i -> [ ("id", Text (string_of_int i)) ]
    | Id_string s when twin = Some Escaped_id ->
        [ ("id", quoted (escape_first s)) ]
    | Id_string s -> [ ("id", quoted s) ]
    | Id_null -> [ ("id", Text "null") ]
    | Id_absent -> []
  in
  let meth = if twin = Some Escaped_method then "rout\\u0065" else "route" in
  Members
    ( id
      @ [ ("method", quoted meth); ("params", params) ]
      @ (match spec.deadline_ms with
        | Some ms -> [ ("deadline_ms", Text (string_of_int ms)) ]
        | None -> [])
      @ (if spec.trace then [ ("trace", quoted tp_example) ] else [])
      @ only Extra_member [ ("x", Text "[1,{}]") ],
      only Repeated_method [ ("method", quoted "teleport") ]
      @ only Repeated_id [ ("id", Text "424242") ] )

let route_spec_gen =
  let open QCheck.Gen in
  let* rows, cols =
    oneofl [ (1, 1); (1, 4); (2, 2); (2, 3); (3, 2); (3, 3); (4, 4) ]
  in
  let n = rows * cols in
  let* perm = shuffle_l (List.init n Fun.id) in
  (* Mostly good lines, and every kind of bad one the shared checks
     answer. *)
  let* flaw =
    frequency
      [ (6, return `None); (1, return `Dims); (1, return `Zero);
        (1, return `Not_perm); (1, return `Length) ]
  in
  let rows, cols, perm =
    match flaw with
    | `None -> (rows, cols, perm)
    | `Dims -> (rows, cols + 1, perm)
    | `Zero -> (0, cols, perm)
    | `Not_perm ->
        ( rows,
          cols,
          if n = 1 then [ 1 ]
          else List.mapi (fun k d -> if k = 1 then List.hd perm else d) perm )
    | `Length -> (rows, cols, n :: perm)
  in
  let* id =
    oneof
      [
        map
          (fun i -> Id_int i)
          (oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int ] ]);
        map
          (fun s -> Id_string s)
          (oneofl [ "a"; "req-7"; ""; "\xf0\x9f\x98\x80"; "q\x01z" ]);
        return Id_null;
        return Id_absent;
      ]
  in
  let* engine =
    option
      (oneofl [ "best"; "local"; "local1"; "naive"; "snake"; "ats"; "warp" ])
  in
  let* deadline_ms = oneofl [ None; None; Some 0; Some 60_000 ] in
  let* trace = bool in
  return { id; rows; cols; perm; engine; deadline_ms; trace }

(* A line the reader takes, and its twin, rendered separately. *)
let line_and_twin_gen =
  let open QCheck.Gen in
  let* spec = route_spec_gen in
  let* twin = oneofl (twins spec) in
  let* pad_l = ws_gen and* pad_r = ws_gen in
  let* perm = int_list_gen spec.perm and* twin_perm = int_list_gen spec.perm in
  let* line = render_gen (spec_doc spec perm) in
  let* twin_line = render_gen (spec_doc ~twin spec twin_perm) in
  return (pad_l ^ line ^ pad_r, twin_line)

(* Both readers give one reply, byte for byte once [server_ms] is cut:
   the line and its twin, each sent twice to a fresh session (a miss,
   then a hit, for the [cached] flag).  Mutants it kills: a hot path
   that defaults the engine to [local], a reader that keeps a string's
   escapes as raw bytes, and one that lets a repeated key overwrite. *)
let reader_matches_tree_property =
  QCheck.Test.make ~name:"reader and tree give the same reply" ~count:300
    (QCheck.make ~print:(fun (l, t) -> l ^ "\n" ^ t) line_and_twin_gen)
    (fun (line, twin) ->
      let replies line =
        let session = Session.create () in
        List.init 2 (fun _ ->
            strip_server_ms (Session.handle_line session line))
      in
      if P.read_route_line line = None then
        QCheck.Test.fail_reportf "reader refused %S" line;
      if P.read_route_line twin <> None then
        QCheck.Test.fail_reportf "reader took the twin %S" twin;
      let a = replies line and b = replies twin in
      if a <> b then
        QCheck.Test.fail_reportf "replies differ:\n%s\n%s"
          (String.concat "\n" a) (String.concat "\n" b);
      true)

(* [s], a run of decimal digits, plus one. *)
let succ_digits s =
  let b = Bytes.of_string s in
  let rec carry i =
    if i < 0 then "1" ^ Bytes.to_string b
    else if Bytes.get b i = '9' then begin
      Bytes.set b i '0';
      carry (i - 1)
    end
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Bytes.to_string b
    end
  in
  carry (String.length s - 1)

(* Number texts at the edges of the reader's digit loop: "-0", leading
   zeros, and 18, 19 and 20 digits on both sides of [max_int] and
   [min_int].  No 18 digits leave the [int] range, so the reader tests
   for overflow only from an entry's 19th digit on. *)
let number_edges =
  let max_text = string_of_int max_int in
  let min_digits = String.sub (string_of_int min_int) 1 (String.length max_text) in
  let nines k = String.make k '9' and ten_to k = "1" ^ String.make k '0' in
  [
    "0"; "-0"; "00"; "-00"; "007"; "-007"; String.make 24 '0' ^ "1";
    nines 18; "-" ^ nines 18; ten_to 17; "-" ^ ten_to 17;
    string_of_int (max_int - 1); max_text; succ_digits max_text; nines 19;
    string_of_int (min_int + 1); "-" ^ min_digits; "-" ^ succ_digits min_digits;
    "-" ^ nines 19;
    ten_to 19; "-" ^ ten_to 19; "0" ^ max_text; "-0" ^ min_digits;
    "0" ^ succ_digits max_text; "-0" ^ succ_digits min_digits;
  ]

(* [edits] random edits of [line]: a byte set, deleted or inserted, a
   run of digits that overflows any number it lands in, a number from
   [number_edges], or whitespace. *)
let mutate_gen line =
  let open QCheck.Gen in
  let json_bytes = List.of_seq (String.to_seq "{}[]\":,-0 \\.e") in
  let rec go k line =
    if k = 0 || line = "" then return line
    else
      let* at = int_bound (String.length line - 1) in
      let* byte = map (String.make 1) (oneof [ char; oneofl json_bytes ]) in
      let* number = oneofl number_edges and* ws = ws_gen in
      let* edit = oneofl [ `Set; `Delete; `Insert; `Digits; `Number; `Ws ] in
      let before = String.sub line 0 at in
      let from k = String.sub line k (String.length line - k) in
      go (k - 1)
        (match edit with
        | `Set -> before ^ byte ^ from (at + 1)
        | `Delete -> before ^ from (at + 1)
        | `Insert -> before ^ byte ^ from at
        | `Digits -> before ^ "9999999999999999999" ^ from at
        | `Number -> before ^ number ^ from at
        | `Ws -> before ^ ws ^ from at)
  in
  let* edits = int_range 1 3 in
  go edits line

(* A line of the reader's shape whose perm is edge numbers. *)
let edge_perm_line_gen =
  let open QCheck.Gen in
  let* spec = route_spec_gen in
  let* entries = list_size (int_range 1 5) (oneofl number_edges) in
  let* perm = list_text_gen (List.map return entries) in
  render_gen (spec_doc spec perm)

(* The fields the tree reads from [line], in the reader's terms, or why
   it does not read them as a [route] line the reader could take. *)
let tree_route_fields line =
  let ( let* ) = Result.bind in
  let* json = Json.of_string line in
  let* req =
    Result.map_error (fun e -> e.P.message) (P.request_of_json json)
  in
  let field name = Json.member name req.P.params in
  let* grid = Option.to_result ~none:"no grid" (field "grid") in
  let* perm = Option.to_result ~none:"no perm" (field "perm") in
  let* rows, cols = P.grid_fields_of_json grid in
  let* perm = P.perm_entries_of_json perm in
  let keys =
    match req.P.params with Json.Obj fields -> List.map fst fields | _ -> []
  in
  if not (List.for_all (fun k -> List.mem k [ "grid"; "perm"; "engine" ]) keys)
  then Error "other params"
  else
    Ok
      ( req.P.meth,
        {
          P.route_id = req.P.id;
          route_deadline_ms = req.P.deadline_ms;
          route_trace = req.P.trace;
          rows;
          cols;
          perm;
          engine = Option.bind (field "engine") Json.get_string;
        } )

(* Hostile input: the reader never raises, and takes only lines the tree
   parses to a [route] request with the same fields.  A mutant it kills:
   a reader without its overflow check. *)
let reader_hostile_property =
  let open QCheck.Gen in
  let junk =
    string_size
      ~gen:(oneofl (List.of_seq (String.to_seq "{}[]\":,-0129 nulltrue\\e.x")))
      (int_bound 40)
  in
  let gen =
    oneof
      [
        junk;
        string;
        (let* line, _ = line_and_twin_gen in
         mutate_gen line);
        edge_perm_line_gen;
        (let* line = edge_perm_line_gen in
         mutate_gen line);
      ]
  in
  QCheck.Test.make ~name:"reader takes only what the tree reads alike"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun line ->
      match P.read_route_line line with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | None -> true
      | Some r -> (
          let same_trace a b = Option.equal Trace_context.equal a b in
          match tree_route_fields line with
          | Ok (meth, t) ->
              meth = "route"
              && Json.equal t.P.route_id r.P.route_id
              && t.P.route_deadline_ms = r.P.route_deadline_ms
              && same_trace t.P.route_trace r.P.route_trace
              && (t.P.rows, t.P.cols, t.P.perm, t.P.engine)
                 = (r.P.rows, r.P.cols, r.P.perm, r.P.engine)
              || QCheck.Test.fail_reportf "the tree reads other fields"
          | Error msg -> QCheck.Test.fail_reportf "the tree refuses it: %s" msg))

(* Every edge number as a perm entry, with whitespace around every
   token or none: the reader takes the line exactly when the tree reads
   the entry as an [Int], reads the same value, and both readers give
   one reply (miss, then hit).  A permutation spelled with "-0" and
   leading zeros gets the reply its plain spelling gets. *)
let test_perm_entry_edges () =
  let line key perm =
    Printf.sprintf
      {|{"id":7,"method":"route","params":{"grid":{"rows":2,"cols":2},"%s":%s}}|}
      key perm
  in
  let replies line =
    let session = Session.create () in
    List.init 2 (fun _ -> strip_server_ms (Session.handle_line session line))
  in
  let perm_texts entries =
    [
      "[" ^ String.concat "," entries ^ "]";
      "[ \t" ^ String.concat " ,\n\r" entries ^ "\t ]";
    ]
  in
  let same_replies text =
    let a = replies (line "perm" text) and b = replies (line "p\\u0065rm" text) in
    if a <> b then
      Alcotest.failf "%s: replies differ:\n%s\n%s" text (String.concat "\n" a)
        (String.concat "\n" b)
  in
  List.iter
    (fun entry ->
      List.iter
        (fun text ->
          let expected = int_of_string_opt entry in
          (match (P.read_route_line (line "perm" text), expected) with
          | Some r, Some v -> checki (text ^ ": entry") v r.P.perm.(3)
          | None, None -> ()
          | Some _, None -> Alcotest.failf "%s: read an entry out of range" text
          | None, Some _ -> Alcotest.failf "%s: refused an int entry" text);
          same_replies text)
        (perm_texts [ "1"; "0"; "3"; entry ]))
    number_edges;
  let plain = replies (line "perm" "[1,0,3,2]") in
  List.iter
    (fun entries ->
      List.iter
        (fun text ->
          checkb (text ^ ": read") true
            (P.read_route_line (line "perm" text) <> None);
          same_replies text;
          if replies (line "perm" text) <> plain then
            Alcotest.failf "%s: not the reply to [1,0,3,2]" text)
        (perm_texts entries))
    [
      [ "01"; "-0"; "0003"; "2" ];
      [ "1"; "00"; "3"; String.make 24 '0' ^ "2" ];
    ]

(* --------------------------------------------------------- serving loop *)

let serve_script ?config lines =
  (* Drive Server.serve_channels over an in-memory pipe pair: requests are
     written up front (well within pipe capacity), the loop runs to EOF,
     and the responses are read back — no sockets, no subprocess.  The
     last line goes without a newline: the end of input ends it. *)
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  let reqs = Unix.out_channel_of_descr req_write in
  output_string reqs (String.concat "\n" lines);
  close_out reqs;
  let ic = Unix.in_channel_of_descr req_read in
  let oc = Unix.out_channel_of_descr resp_write in
  Server.serve_channels ?config ic oc;
  close_out oc;
  close_in ic;
  let responses = Unix.in_channel_of_descr resp_read in
  let rec read acc =
    match input_line responses with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = read [] in
  close_in responses;
  out

let test_serve_channels_end_to_end () =
  with_clean_sinks @@ fun () ->
  let responses =
    serve_script
      [
        route_line ~id:1 ();
        "";
        route_line ~id:2 ();
        "not json";
        {|{"id": 3, "method": "health"}|};
      ]
  in
  (* The blank line is skipped; every request gets exactly one response,
     in request order. *)
  checki "four responses" 4 (List.length responses);
  let nth = List.nth responses in
  let id_of line = Json.member "id" (Json.of_string_exn line) in
  checkb "order preserved" true
    (id_of (nth 0) = Some (Json.Int 1)
    && id_of (nth 1) = Some (Json.Int 2)
    && id_of (nth 3) = Some (Json.Int 3));
  checkb "repeat served from cache" true
    (member_exn "cached" (result_of (nth 1)) = Json.Bool true);
  checkb "parse error mid-stream" true
    (error_code_of (nth 2) = Some P.Parse_error);
  let health = result_of (nth 3) in
  (match member_exn "plan_cache" health with
  | pc ->
      checkb "hit visible in health" true (member_exn "hits" pc = Json.Int 1));
  (* Identical requests, identical bytes — ids differ, schedules must not. *)
  let sched line = Json.to_string (member_exn "schedule" (result_of line)) in
  checks "cache hit is byte-identical" (sched (nth 0)) (sched (nth 1));
  (* A line past max_line_bytes gets invalid_request, as on a socket, and
     nothing after it is read. *)
  let config = { Session.default_config with Session.max_line_bytes = 512 } in
  match
    serve_script ~config
      [ route_line ~id:1 (); String.make 600 'x'; route_line ~id:3 () ]
  with
  | [ first; goodbye ] ->
      checkb "line before the long one answered" true
        (id_of first = Some (Json.Int 1) && error_code_of first = None);
      checkb "long line refused" true
        (error_code_of goodbye = Some P.Invalid_request)
  | replies -> Alcotest.failf "%d replies, expected 2" (List.length replies)

let () =
  Alcotest.run "qr_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "error code names" `Quick test_error_code_names;
          Alcotest.test_case "request validation" `Quick test_request_of_json;
          Alcotest.test_case "id recovery" `Quick test_request_id_recovery;
          Alcotest.test_case "envelope round-trip" `Quick
            test_request_envelope_roundtrip;
          Alcotest.test_case "response envelopes" `Quick test_response_envelopes;
          Alcotest.test_case "grid codec" `Quick test_grid_codec;
          Alcotest.test_case "perm codec" `Quick test_perm_codec;
          Alcotest.test_case "config codec" `Quick test_config_codec;
          Alcotest.test_case "engines payload" `Quick test_engines_json;
          Alcotest.test_case "trace codec" `Quick test_protocol_trace_codec;
          Alcotest.test_case "response trace metadata" `Quick
            test_response_trace_meta;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "key discriminates" `Quick
            test_cache_key_discriminates;
          QCheck_alcotest.to_alcotest key_equality_property;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "clear keeps counters" `Quick
            test_cache_clear_keeps_counters;
          Alcotest.test_case "metrics counters" `Quick
            test_cache_metrics_counters;
        ] );
      ( "session",
        [
          Alcotest.test_case "repeat hits cache" `Quick
            test_session_repeated_route_hits_cache;
          Alcotest.test_case "key ignores fields the engine never reads" `Quick
            test_session_normalized_cache_key;
          Alcotest.test_case "best keys on what its contenders read" `Quick
            test_session_best_cache_key;
          Alcotest.test_case "ats-serial ignores the seed" `Quick
            test_session_ats_serial_cache_key;
          Alcotest.test_case "0ms deadline" `Quick test_session_zero_deadline;
          Alcotest.test_case "error envelopes" `Quick
            test_session_error_envelopes;
          Alcotest.test_case "route_batch" `Quick test_session_route_batch;
          Alcotest.test_case "oversized grid" `Quick
            test_session_oversized_grid;
          Alcotest.test_case "config limits" `Quick
            test_session_config_limits;
          Alcotest.test_case "astral-plane id" `Quick
            test_session_echoes_astral_id;
          Alcotest.test_case "transpile" `Quick test_session_transpile;
          Alcotest.test_case "engines/health/metrics" `Quick
            test_session_introspection_methods;
          Alcotest.test_case "shared cache" `Quick test_session_shared_cache;
          Alcotest.test_case "overloaded line" `Quick
            test_overloaded_response_line;
          Alcotest.test_case "trace echo + adoption" `Quick
            test_session_trace_echo;
          Alcotest.test_case "access log" `Quick test_session_access_log;
          Alcotest.test_case "health telemetry" `Quick
            test_session_health_telemetry;
          Alcotest.test_case "stats method" `Quick test_session_stats_method;
          Alcotest.test_case "reply-bytes digest" `Quick
            test_reply_bytes_digest;
          Alcotest.test_case "cache hit minor words" `Quick
            test_cache_hit_minor_words;
          Alcotest.test_case "grid reuse across shapes" `Quick
            test_grid_reuse_across_shapes;
        ] );
      ( "serve",
        [
          Alcotest.test_case "channel loop end-to-end" `Quick
            test_serve_channels_end_to_end;
          Alcotest.test_case "metrics file snapshot" `Quick
            test_metrics_file_snapshot;
        ] );
      ( "route_line",
        [
          QCheck_alcotest.to_alcotest reader_matches_tree_property;
          QCheck_alcotest.to_alcotest reader_hostile_property;
          Alcotest.test_case "perm entry edges" `Quick test_perm_entry_edges;
        ] );
    ]
