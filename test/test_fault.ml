(* Tests for the robustness layer: the Qr_fault injection substrate, the
   hardened I/O helpers, verified routing with graceful degradation, the
   self-healing session, client retries, and a battery of seeded chaos
   scenarios driven through the real serving loop over a socketpair. *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Trace = Qr_obs.Trace
module Trace_context = Qr_obs.Trace_context
module Log = Qr_obs.Log
module Rng = Qr_util.Rng
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Router_intf = Qr_route.Router_intf
module Router_registry = Qr_route.Router_registry
module Fault = Qr_fault.Fault
module Io_util = Qr_server.Io_util
module P = Qr_server.Protocol
module Plan_cache = Qr_server.Plan_cache
module Session = Qr_server.Session
module Server = Qr_server.Server
module Client = Qr_server.Client

let () = Qr_token.Engines.register ()

(* Chaos plans make servers write into dead peers on purpose; the EPIPE
   must arrive as an errno, not a signal. *)
let () = ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_clean_sinks f =
  let finally () =
    ignore (Trace.stop ());
    Metrics.disable ();
    Metrics.reset ()
  in
  Fun.protect ~finally f

(* Every test disarms on the way out so suites can run in any order. *)
let with_plan ?(seed = 0) plan f =
  (match Fault.parse_plan plan with
  | Ok specs -> Fault.arm ~seed specs
  | Error msg -> Alcotest.failf "bad test plan %S: %s" plan msg);
  Fun.protect ~finally:Fault.disarm f

let counter name =
  match Metrics.find_counter name with
  | Some c -> Metrics.value c
  | None -> Alcotest.failf "counter %s not registered" name

(* ------------------------------------------------------------- plan DSL *)

let test_parse_plan () =
  let ok text =
    match Fault.parse_plan text with
    | Ok specs -> specs
    | Error msg -> Alcotest.failf "rejected %S: %s" text msg
  in
  (match ok "server.write=raise" with
  | [ { Fault.point = "server.write"; action = Fault.Raise; prob; max_fires } ]
    ->
      checkb "default prob" true (prob = 1.0);
      checkb "default unlimited" true (max_fires = None)
  | _ -> Alcotest.fail "one raise spec expected");
  (match ok "cache.find=corrupt@0.25#3" with
  | [ { Fault.action = Fault.Corrupt; prob; max_fires; _ } ] ->
      checkb "prob parsed" true (prob = 0.25);
      checkb "count parsed" true (max_fires = Some 3)
  | _ -> Alcotest.fail "corrupt spec expected");
  (* The two suffixes compose in either order. *)
  (match ok "p=raise#2@0.5" with
  | [ { Fault.prob; max_fires; _ } ] ->
      checkb "suffix order" true (prob = 0.5 && max_fires = Some 2)
  | _ -> Alcotest.fail "suffixes in either order");
  (match ok "a=raise(eintr); b=delay(40) ; c=truncate" with
  | [ a; b; c ] ->
      checkb "eintr errno" true (a.Fault.action = Fault.Raise_errno Unix.EINTR);
      checkb "delay ms" true (b.Fault.action = Fault.Delay_ms 40);
      checkb "truncate" true (c.Fault.action = Fault.Truncate)
  | _ -> Alcotest.fail "three specs expected");
  checkb "empty plan" true (Fault.parse_plan "" = Ok []);
  let rejects text = Result.is_error (Fault.parse_plan text) in
  checkb "missing =" true (rejects "serverwrite");
  checkb "empty point" true (rejects "=raise");
  checkb "unknown action" true (rejects "p=explode");
  checkb "prob zero" true (rejects "p=raise@0");
  checkb "prob above one" true (rejects "p=raise@1.5");
  checkb "count zero" true (rejects "p=raise#0");
  checkb "negative delay" true (rejects "p=delay(-1)")

let test_plan_roundtrip () =
  List.iter
    (fun text ->
      match Fault.parse_plan text with
      | Error msg -> Alcotest.failf "no parse for %S: %s" text msg
      | Ok specs -> (
          checks "canonical text" text (Fault.to_string specs);
          match Fault.parse_plan (Fault.to_string specs) with
          | Ok again -> checkb "round-trip" true (again = specs)
          | Error msg -> Alcotest.failf "no re-parse: %s" msg))
    [
      "server.write=raise";
      "engine.plan=raise@0.3;cache.find=corrupt#2";
      "server.read=raise(eintr)#5;io=truncate@0.5;x=delay(10)";
      "p=raise(epipe);q=raise(econnreset)";
    ]

(* ----------------------------------------------------------- primitives *)

let test_disarmed_noops () =
  Fault.disarm ();
  checkb "not armed" true (not (Fault.armed ()));
  checki "point passthrough" 41 (Fault.point "x" ~f:(fun () -> 41));
  checki "corrupt passthrough" 7 (Fault.corrupt "x" (fun v -> v * 2) 7);
  checki "truncate passthrough" 100 (Fault.truncate "x" 100);
  checki "no fires" 0 (Fault.fires "x")

let test_point_raises () =
  with_plan "boom=raise" @@ fun () ->
  checkb "raises Injected" true
    (match Fault.point "boom" ~f:(fun () -> 0) with
    | _ -> false
    | exception Fault.Injected "boom" -> true);
  checkb "other points untouched" true
    (Fault.point "calm" ~f:(fun () -> true))

let test_point_errno () =
  with_plan "io=raise(epipe)" @@ fun () ->
  match Fault.point "io" ~f:(fun () -> 0) with
  | _ -> Alcotest.fail "expected Unix_error"
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()

let test_fire_count_caps () =
  with_plan "p=raise#2" @@ fun () ->
  let attempt () =
    match Fault.point "p" ~f:(fun () -> `Ran) with
    | v -> v
    | exception Fault.Injected _ -> `Injected
  in
  checkb "fires twice then stops" true
    (attempt () = `Injected && attempt () = `Injected && attempt () = `Ran
    && attempt () = `Ran);
  checki "tally" 2 (Fault.fires "p")

let test_action_applicability () =
  (* A truncate spec must not fire (or consume draws) at Fault.point, and
     vice versa — each helper only sees its own action kinds. *)
  with_plan "p=truncate#1;p=raise#1" @@ fun () ->
  (match Fault.point "p" ~f:(fun () -> ()) with
  | () -> Alcotest.fail "raise spec must fire at the point helper"
  | exception Fault.Injected _ -> ());
  checkb "truncate spec still live for the truncate helper" true
    (Fault.truncate "p" 1000 < 1000);
  checki "both fired" 2 (Fault.fires "p")

let test_truncate_bounds () =
  with_plan "w=truncate" @@ fun () ->
  for len = 2 to 64 do
    let t = Fault.truncate "w" len in
    checkb (Printf.sprintf "1 <= t < %d" len) true (t >= 1 && t < len)
  done;
  checki "len 1 passes through" 1 (Fault.truncate "w" 1);
  checki "len 0 passes through" 0 (Fault.truncate "w" 0)

let test_corrupt_applies_mangler () =
  with_plan "c=corrupt#1" @@ fun () ->
  checki "mangled once" 20 (Fault.corrupt "c" (fun v -> v * 2) 10);
  checki "then passthrough" 10 (Fault.corrupt "c" (fun v -> v * 2) 10)

let test_probability_deterministic () =
  let draw seed =
    (match Fault.parse_plan "p=raise@0.5" with
    | Ok specs -> Fault.arm ~seed specs
    | Error msg -> Alcotest.failf "bad plan: %s" msg);
    let pattern =
      List.init 64 (fun _ ->
          match Fault.point "p" ~f:(fun () -> false) with
          | v -> v
          | exception Fault.Injected _ -> true)
    in
    Fault.disarm ();
    pattern
  in
  let a = draw 42 and b = draw 42 and c = draw 43 in
  checkb "same seed, same firing pattern" true (a = b);
  checkb "seed varies the pattern" true (a <> c);
  checkb "roughly half fire" true
    (let fired = List.length (List.filter Fun.id a) in
     fired > 16 && fired < 48)

let test_arm_from_env () =
  let finally () =
    Unix.putenv "QR_FAULTS" "";
    Unix.putenv "QR_FAULTS_SEED" "";
    Fault.disarm ()
  in
  Fun.protect ~finally @@ fun () ->
  Unix.putenv "QR_FAULTS" "";
  checkb "empty env arms nothing" true (Fault.arm_from_env () = Ok false);
  Unix.putenv "QR_FAULTS" "p=raise#1";
  Unix.putenv "QR_FAULTS_SEED" "7";
  (match Fault.arm_from_env () with
  | Ok true -> checkb "armed" true (Fault.armed ())
  | other ->
      Alcotest.failf "expected Ok true, got %s"
        (match other with
        | Ok false -> "Ok false"
        | Error m -> "Error " ^ m
        | Ok true -> assert false));
  Unix.putenv "QR_FAULTS" "p=explode";
  checkb "bad plan rejected" true (Result.is_error (Fault.arm_from_env ()));
  Unix.putenv "QR_FAULTS" "p=raise";
  Unix.putenv "QR_FAULTS_SEED" "many";
  checkb "bad seed rejected" true (Result.is_error (Fault.arm_from_env ()))

(* ----------------------------------------------------------- hardened IO *)

let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let drain fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_write_all_torn_writes () =
  (* Truncate faults shorten every attempted write; the loop must still
     deliver the full payload, byte-identical. *)
  let a, b = socketpair () in
  let payload = String.init 8192 (fun i -> Char.chr (i mod 251)) in
  with_plan "w=truncate" (fun () ->
      checkb "write completes" true
        (Io_util.write_all ~fault:"w" a payload = Ok ());
      checkb "faults actually fired" true (Fault.fires "w" > 0));
  Unix.close a;
  let got = drain b in
  Unix.close b;
  checkb "payload intact" true (got = payload)

let test_write_all_eintr_storm () =
  let a, b = socketpair () in
  with_plan "w=raise(eintr)#5" (fun () ->
      checkb "write survives the storm" true
        (Io_util.write_all ~fault:"w" a "hello\n" = Ok ());
      checki "five interrupts" 5 (Fault.fires "w"));
  Unix.close a;
  checks "payload intact" "hello\n" (drain b);
  Unix.close b

let test_write_all_real_epipe () =
  (* A genuinely dead peer: close the other end, then write enough to
     defeat kernel buffering.  The error must come back as a value. *)
  let a, b = socketpair () in
  Unix.close b;
  let payload = String.make (1 lsl 20) 'x' in
  let result = Io_util.write_all a payload in
  Unix.close a;
  checkb "peer gone is Error `Closed" true (result = Error `Closed)

let test_write_all_injected_epipe () =
  let a, b = socketpair () in
  with_plan "w=raise(epipe)#1" (fun () ->
      checkb "injected epipe is Error `Closed" true
        (Io_util.write_all ~fault:"w" a "data" = Error `Closed));
  Unix.close a;
  Unix.close b

let test_read_chunk_eintr_and_reset () =
  let a, b = socketpair () in
  ignore (Unix.write_substring a "ping" 0 4);
  let buf = Bytes.create 64 in
  with_plan "r=raise(eintr)#3" (fun () ->
      (match Io_util.read_chunk ~fault:"r" b buf with
      | Io_util.Read 4 -> checks "data" "ping" (Bytes.sub_string buf 0 4)
      | _ -> Alcotest.fail "expected Read 4 after the interrupts");
      checki "three interrupts retried" 3 (Fault.fires "r"));
  with_plan "r=raise(econnreset)#1" (fun () ->
      checkb "injected reset is Closed" true
        (Io_util.read_chunk ~fault:"r" b buf = Io_util.Closed));
  Unix.close a;
  checkb "orderly eof" true (Io_util.read_chunk b buf = Io_util.Eof);
  Unix.close b

let test_read_chunk_eagain () =
  (* EAGAIN/EWOULDBLOCK on a read is a {e state} of a nonblocking fd,
     not a transient to spin through: the old retry loop burned a whole
     core re-reading an idle descriptor.  read_chunk must surface
     Would_block (once per kernel report — one fire, not a retry storm)
     so the event loop can park the connection until poll(2) says
     readable. *)
  let a, b = socketpair () in
  ignore (Unix.write_substring a "pong" 0 4);
  let buf = Bytes.create 64 in
  with_plan "r=raise(eagain)#2" (fun () ->
      checkb "wouldblock surfaces" true
        (Io_util.read_chunk ~fault:"r" b buf = Io_util.Would_block);
      checki "one report, one fire (no spin)" 1 (Fault.fires "r");
      checkb "second wouldblock surfaces" true
        (Io_util.read_chunk ~fault:"r" b buf = Io_util.Would_block);
      (* Plan exhausted: the buffered bytes come through untouched. *)
      match Io_util.read_chunk ~fault:"r" b buf with
      | Io_util.Read 4 -> checks "data" "pong" (Bytes.sub_string buf 0 4)
      | _ -> Alcotest.fail "expected Read 4 once the plan is spent");
  (* A real (not injected) EAGAIN on a genuinely nonblocking fd. *)
  Unix.set_nonblock b;
  checkb "kernel wouldblock surfaces" true
    (Io_util.read_chunk b buf = Io_util.Would_block);
  Unix.clear_nonblock b;
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------ verified routing *)

(* A deliberately broken engine: always emits a single non-adjacent swap,
   so Schedule.is_valid fails on any grid larger than 1x2.  Registered
   once so fallback chains can also be pointed at real engines. *)
let () =
  try
    Router_registry.register
      {
        Router_intf.name = "evil";
        capabilities =
          {
            Router_intf.grid_only = false;
            supports_transpose = false;
            supports_partial = false;
          };
        route =
          (fun _ _ input -> [ [| (0, Router_intf.input_size input - 1) |] ]);
      }
  with Invalid_argument _ -> ()

let grid3 = Grid.make ~rows:3 ~cols:3
let rev9 = Perm.check [| 8; 7; 6; 5; 4; 3; 2; 1; 0 |]

let test_validate () =
  let input = Router_intf.Grid_input (grid3, rev9) in
  let good = Router_intf.route_grid (Router_registry.get "local") grid3 rev9 in
  checkb "good schedule validates" true
    (Router_registry.validate input good = Ok ());
  (match Router_registry.validate input [ [| (0, 8) |] ] with
  | Error reason -> checkb "invalid layer reported" true (reason <> "")
  | Ok () -> Alcotest.fail "non-adjacent swap must not validate");
  match Router_registry.validate input [] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty schedule does not realize a reversal"

let test_verified_degrades_bad_engine () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let failures0 = Router_registry.verify_failures () in
  let degraded0 = Router_registry.degradations () in
  let v = Router_registry.verified (Router_registry.get "evil") in
  checks "wrapper keeps the name" "evil" v.Router_intf.name;
  let sched = Router_intf.route_grid v grid3 rev9 in
  checkb "rescued schedule is valid" true
    (Schedule.is_valid (Grid.graph grid3) sched);
  checkb "rescued schedule realizes" true
    (Schedule.realizes ~n:9 sched rev9);
  checkb "failure tallied" true
    (Router_registry.verify_failures () > failures0);
  checkb "degradation tallied" true
    (Router_registry.degradations () > degraded0);
  checkb "metrics observable" true
    (counter "router_verify_failures" >= 1 && counter "router_degraded" >= 1)

let test_verified_rescues_raising_engine () =
  let degraded0 = Router_registry.degradations () in
  with_plan "engine.plan=raise#1" @@ fun () ->
  let v = Router_registry.verified (Router_registry.get "local") in
  let sched = Router_intf.route_grid v grid3 rev9 in
  checkb "fallback schedule realizes" true (Schedule.realizes ~n:9 sched rev9);
  checkb "one rescue" true (Router_registry.degradations () = degraded0 + 1)

let test_verified_chain_exhaustion () =
  (* Unlimited raises take down the engine and every fallback. *)
  with_plan "engine.plan=raise" @@ fun () ->
  let v = Router_registry.verified (Router_registry.get "local") in
  match Router_intf.route_grid v grid3 rev9 with
  | _ -> Alcotest.fail "expected Verification_failed"
  | exception Router_registry.Verification_failed { engine = "local"; _ } -> ()

let test_verified_pass_through () =
  (* A healthy engine under verification: same schedule, no degradation. *)
  let degraded0 = Router_registry.degradations () in
  let plain = Router_intf.route_grid (Router_registry.get "local") grid3 rev9 in
  let v = Router_registry.verified (Router_registry.get "local") in
  checkb "identical schedule" true (Router_intf.route_grid v grid3 rev9 = plain);
  checki "no degradation" degraded0 (Router_registry.degradations ())

(* --------------------------------------------------------------- session *)

let route_line ?(id = 1) ?(engine = "local") ?deadline_ms pi =
  let deadline =
    match deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf {|, "deadline_ms": %d|} ms
  in
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": %s, "engine": "%s"}%s}|}
    id
    (Json.to_string (P.perm_to_json pi))
    engine deadline

let result_of line =
  match P.response_result (Json.of_string_exn line) with
  | Ok result -> result
  | Error err -> Alcotest.failf "error response: %s" err.P.message

let error_code_of line =
  match P.response_result (Json.of_string_exn line) with
  | Ok _ -> None
  | Error err -> Some err.P.code

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" name (Json.to_string doc)

let verify_config = { Session.default_config with Session.verify = true }

let test_session_cache_corruption_self_heals () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let session = Session.create ~config:verify_config () in
  let warm = result_of (Session.handle_line session (route_line rev9)) in
  checkb "first plans" true (member_exn "cached" warm = Json.Bool false);
  with_plan "cache.find=corrupt" (fun () ->
      let healed = result_of (Session.handle_line session (route_line rev9)) in
      (* The hit was corrupted, detected, evicted and replanned — the
         response is a fresh (uncached) valid schedule, not the mangled
         one. *)
      checkb "corrupted hit replanned" true
        (member_exn "cached" healed = Json.Bool false);
      match Schedule.of_json (member_exn "schedule" healed) with
      | Ok sched -> checkb "healed realizes" true (Schedule.realizes ~n:9 sched rev9)
      | Error msg -> Alcotest.failf "bad schedule json: %s" msg);
  checkb "invalid hits counted" true (counter "plan_cache_invalid" >= 1);
  (* After disarming, the re-stored entry serves hits again. *)
  let after = result_of (Session.handle_line session (route_line rev9)) in
  checkb "healed entry hits" true (member_exn "cached" after = Json.Bool true)

let test_session_cache_errors_are_misses () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let session = Session.create () in
  with_plan "cache.find=raise;cache.insert=raise" (fun () ->
      let r = result_of (Session.handle_line session (route_line rev9)) in
      checkb "request still answered" true
        (member_exn "cached" r = Json.Bool false));
  checkb "cache errors counted" true (counter "plan_cache_errors" >= 2);
  checki "nothing stored" 0 (Plan_cache.length (Session.cache session))

let test_session_dispatch_crash_isolated () =
  let session = Session.create () in
  with_plan "session.dispatch=raise#1" (fun () ->
      let r = Session.handle_line session (route_line ~id:5 rev9) in
      checkb "typed internal_error" true
        (error_code_of r = Some P.Internal_error);
      checkb "id echoed" true
        (Json.member "id" (Json.of_string_exn r) = Some (Json.Int 5)));
  (* The session survives: the very next request succeeds. *)
  let ok = result_of (Session.handle_line session (route_line rev9)) in
  checkb "next request fine" true (Json.member "schedule" ok <> None)

let test_session_consecutive_errors () =
  (* The flag the server counts each connection's error budget from. *)
  let session = Session.create () in
  let errored line = snd (Session.handle_line_status session line) in
  checkb "parse error flagged" true (errored "junk");
  checkb "invalid request flagged" true (errored {|{"id": 1}|});
  checkb "success not flagged" false (errored (route_line rev9));
  checkb "routing error flagged" true
    (errored
       {|{"id": 4, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [0,0,1,2,3,4,5,6,7], "engine": "local"}}|});
  let reply, flag = Session.handle_line_status session "junk" in
  checkb "flag agrees with the reply" true
    (flag && error_code_of reply = Some P.Parse_error)

let test_batch_deadline_aborts_mid_plan () =
  let session = Session.create () in
  let perms =
    List.init 3 (fun k -> Perm.check (Rng.permutation (Rng.create k) 9))
  in
  with_plan "engine.plan=delay(60)" @@ fun () ->
  let line =
    Printf.sprintf
      {|{"id": 1, "method": "route_batch", "params": {"grid": {"rows": 3, "cols": 3}, "perms": [%s], "engine": "local"}, "deadline_ms": 25}|}
      (String.concat ","
         (List.map (fun pi -> Json.to_string (P.perm_to_json pi)) perms))
  in
  let result = result_of (Session.handle_line session line) in
  (* Cooperative cancellation: the deadline fires {e inside} the first
     item's plan (the engine polls the request's cancel token between
     sweeps), so the expired item aborts mid-plan instead of running to
     completion — nothing completes, every item reports the typed
     error. *)
  checkb "nothing completed" true (member_exn "completed" result = Json.Int 0);
  (match member_exn "schedules" result with
  | Json.List ([ _; _; _ ] as items) ->
      List.iter
        (fun item ->
          match Json.member "error" item with
          | Some err ->
              checkb "item is deadline_exceeded" true
                (Json.member "code" err
                = Some (Json.String "deadline_exceeded"))
          | None -> Alcotest.fail "expired items must carry errors")
        items
  | j -> Alcotest.failf "expected three items, got %s" (Json.to_string j));
  match member_exn "cached" result with
  | Json.List [ Json.Null; Json.Null; Json.Null ] -> ()
  | j -> Alcotest.failf "cached mirrors completion: %s" (Json.to_string j)

let test_batch_zero_deadline_all_items_error () =
  let session = Session.create () in
  let line =
    {|{"id": 1, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 2}, "perms": [[3,2,1,0], [2,3,0,1]]}, "deadline_ms": 0}|}
  in
  let result = result_of (Session.handle_line session line) in
  checkb "nothing completed" true (member_exn "completed" result = Json.Int 0);
  match member_exn "schedules" result with
  | Json.List items ->
      checki "both items present" 2 (List.length items);
      List.iter
        (fun item ->
          checkb "item is an error object" true (Json.member "error" item <> None))
        items
  | j -> Alcotest.failf "expected a list, got %s" (Json.to_string j)

let test_session_verify_health_report () =
  let session = Session.create ~config:verify_config () in
  ignore (Session.handle_line session (route_line ~engine:"evil" rev9));
  let health =
    result_of (Session.handle_line session {|{"id": 2, "method": "health"}|})
  in
  checkb "degraded status surfaces" true
    (member_exn "status" health = Json.String "degraded");
  let verify = member_exn "verify" health in
  checkb "verify enabled" true (member_exn "enabled" verify = Json.Bool true);
  (match member_exn "failures" verify with
  | Json.Int n -> checkb "failures reported" true (n >= 1)
  | _ -> Alcotest.fail "failures must be an int");
  checkb "faults_armed reported" true
    (member_exn "faults_armed" health = Json.Bool false)

let test_session_verify_serves_evil_engine () =
  (* End to end: a route request naming the broken engine still gets a
     correct schedule (the ladder rescued it), not a garbage response. *)
  let session = Session.create ~config:verify_config () in
  let r = result_of (Session.handle_line session (route_line ~engine:"evil" rev9)) in
  match Schedule.of_json (member_exn "schedule" r) with
  | Ok sched ->
      checkb "valid" true (Schedule.is_valid (Grid.graph grid3) sched);
      checkb "realizes" true (Schedule.realizes ~n:9 sched rev9)
  | Error msg -> Alcotest.failf "bad schedule json: %s" msg

let test_session_unverified_evil_exhaustion_is_typed () =
  (* With the ladder poisoned too, the failure surfaces as a typed
     internal_error envelope — never an unhandled exception. *)
  let session = Session.create ~config:verify_config () in
  with_plan "engine.plan=raise" @@ fun () ->
  let r = Session.handle_line session (route_line rev9) in
  checkb "typed internal_error" true (error_code_of r = Some P.Internal_error)

(* ------------------------------------------------------------ serving fd *)

(* Drive Server.serve_fd over a socketpair: requests written up front,
   the loop runs to EOF (or a fault kills the connection), responses read
   back.  Unlike the channel loop, this path exercises the server.read /
   server.write fault points against a real descriptor. *)
let serve_fd_script ?(config = Session.default_config) lines =
  let client, server = socketpair () in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (match Io_util.write_all client payload with
  | Ok () -> ()
  | Error `Closed -> Alcotest.fail "test harness could not write requests");
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Server.serve_fd ~config server;
  Unix.close server;
  let out = drain client in
  Unix.close client;
  String.split_on_char '\n' out |> List.filter (fun s -> String.trim s <> "")

let test_serve_fd_end_to_end () =
  let responses =
    serve_fd_script [ route_line ~id:1 rev9; {|{"id": 2, "method": "health"}|} ]
  in
  checki "two responses" 2 (List.length responses);
  checkb "route answered" true
    (Json.member "schedule" (result_of (List.nth responses 0)) <> None)

let test_serve_fd_peer_closes_mid_response () =
  (* Satellite regression: the peer vanishes after sending its request;
     the response write hits EPIPE and the loop must return cleanly. *)
  let client, server = socketpair () in
  let line = route_line ~id:1 rev9 ^ "\n" in
  ignore (Unix.write_substring client line 0 (String.length line));
  Unix.close client;
  Server.serve_fd server;
  (* Reaching this point is the assertion: no exception, no hang. *)
  Unix.close server;
  checkb "loop survived the dead peer" true true

let test_serve_fd_error_budget_sheds () =
  (* Three junk lines against a budget of 2: the loop must shed the
     connection by itself — without the client half-closing — and all
     shed responses are typed parse errors. *)
  let client, server = socketpair () in
  let payload = "junk one\njunk two\njunk three\n" in
  ignore (Unix.write_substring client payload 0 (String.length payload));
  (* No shutdown: if the budget is broken this read-loop blocks forever
     and the test times out, which is the failure we want to catch. *)
  let config = { Session.default_config with Session.error_budget = 2 } in
  Server.serve_fd ~config server;
  Unix.close server;
  let responses =
    drain client |> String.split_on_char '\n'
    |> List.filter (fun s -> String.trim s <> "")
  in
  Unix.close client;
  checkb "responses before the close" true (List.length responses >= 2);
  List.iter
    (fun line ->
      checkb "typed parse error" true
        (error_code_of line = Some P.Parse_error))
    responses

(* ------------------------------------------------------- chaos scenarios *)

let chaos_grid = grid3

let chaos_pis =
  List.init 8 (fun k -> (k, Perm.check (Rng.permutation (Rng.create (100 + k)) 9)))

(* Every line the server managed to emit must be either a typed error
   envelope or a result whose schedule(s) still satisfy the routing
   invariant — a chaos plan may degrade service, never corrupt it. *)
let check_chaos_response pis line =
  let json =
    match Json.of_string line with
    | Ok json -> json
    | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg
  in
  match P.response_result json with
  | Error err ->
      checkb "typed error code" true
        (P.code_of_string (P.code_to_string err.P.code) <> None)
  | Ok result -> (
      (match Json.member "schedule" result with
      | Some sj -> (
          let id =
            match Json.member "id" json with Some (Json.Int i) -> i | _ -> -1
          in
          match (Schedule.of_json sj, List.assoc_opt id pis) with
          | Ok sched, Some pi ->
              checkb "chaos schedule valid" true
                (Schedule.is_valid (Grid.graph chaos_grid) sched);
              checkb "chaos schedule realizes" true
                (Schedule.realizes ~n:9 sched pi)
          | Ok _, None -> Alcotest.failf "unknown response id in %s" line
          | Error msg, _ -> Alcotest.failf "bad schedule json: %s" msg)
      | None -> ());
      match Json.member "schedules" result with
      | Some (Json.List items) ->
          List.iter
            (fun item ->
              match Json.member "error" item with
              | Some _ -> ()
              | None -> (
                  match Schedule.of_json item with
                  | Ok sched ->
                      checkb "chaos batch schedule valid" true
                        (Schedule.is_valid (Grid.graph chaos_grid) sched)
                  | Error msg ->
                      Alcotest.failf "bad batch schedule json: %s" msg))
            items
      | _ -> ())

let chaos_case ~plan ~seed () =
  let lines = List.map (fun (id, pi) -> route_line ~id pi) chaos_pis in
  let responses =
    with_plan ~seed plan (fun () ->
        serve_fd_script ~config:verify_config lines)
  in
  checkb "no extra responses" true
    (List.length responses <= List.length lines);
  List.iter (check_chaos_response chaos_pis) responses;
  (* Recovery: with the plan disarmed, a fresh connection must serve a
     full success response. *)
  match serve_fd_script ~config:verify_config [ route_line ~id:0 (snd (List.hd chaos_pis)) ] with
  | [ line ] -> ignore (result_of line)
  | other -> Alcotest.failf "follow-up: expected one response, got %d" (List.length other)

let chaos_scenarios =
  [
    ("flaky planner", "engine.plan=raise@0.5", 1);
    ("engine raises once", "engine.plan=raise#1", 2);
    ("cache read corruption", "cache.find=corrupt", 3);
    ("cache insert failing", "cache.insert=raise", 4);
    ("dispatch crashes", "session.dispatch=raise@0.3", 5);
    ("torn response writes", "server.write=truncate@0.7", 6);
    ("eintr storm", "server.read=raise(eintr)#3;server.write=raise(eintr)#3", 7);
    ("peer vanishes mid-response", "server.write=raise(epipe)#1", 8);
    ("slow planner", "engine.plan=delay(2)@0.5", 9);
  ]

let test_chaos_repeat_hits_under_corruption () =
  (* Repeated identical requests while the cache lies: every response
     must carry a correct schedule (heal-and-replan), and the healed
     entry must serve again once the plan is disarmed. *)
  let pi = snd (List.hd chaos_pis) in
  let lines = List.init 6 (fun id -> route_line ~id pi) in
  let pis = List.init 6 (fun id -> (id, pi)) in
  let responses =
    with_plan ~seed:21 "cache.find=corrupt@0.5" (fun () ->
        serve_fd_script ~config:verify_config lines)
  in
  checki "all answered" 6 (List.length responses);
  List.iter (check_chaos_response pis) responses;
  List.iter (fun line -> ignore (result_of line)) responses

let test_chaos_soak_mixed_faults () =
  (* The multi-fault soak: several subsystems misbehaving at once, over
     several seeds, with batches mixed in.  The loop must survive every
     seed and never emit an invalid schedule. *)
  let batch_line ~id =
    Printf.sprintf
      {|{"id": %d, "method": "route_batch", "params": {"grid": {"rows": 3, "cols": 3}, "perms": [[8,7,6,5,4,3,2,1,0],[1,0,3,2,5,4,7,6,8]], "engine": "local"}}|}
      id
  in
  let lines =
    List.concat_map
      (fun (id, pi) -> [ route_line ~id pi; batch_line ~id:(id + 100) ])
      chaos_pis
  in
  List.iter
    (fun seed ->
      let responses =
        with_plan ~seed
          "engine.plan=raise@0.2;cache.find=corrupt@0.3;server.write=truncate@0.5;session.dispatch=raise@0.1"
          (fun () -> serve_fd_script ~config:verify_config lines)
      in
      List.iter (check_chaos_response chaos_pis) responses)
    [ 11; 12; 13 ];
  (* Recovery after the soak. *)
  match serve_fd_script ~config:verify_config [ route_line ~id:0 rev9 ] with
  | [ line ] -> ignore (result_of line)
  | other -> Alcotest.failf "post-soak: expected one response, got %d" (List.length other)

(* ---------------------------------------------------------------- client *)

let test_retryable_classification () =
  checkb "overloaded retries" true (Client.retryable_code P.Overloaded);
  List.iter
    (fun code ->
      checkb
        ("never retried: " ^ P.code_to_string code)
        false
        (Client.retryable_code code))
    [
      P.Parse_error; P.Invalid_request; P.Unknown_method; P.Invalid_params;
      P.Unsupported_input; P.Deadline_exceeded; P.Internal_error;
    ]

let fast_retry attempts =
  { Client.attempts; base_delay_ms = 1.; max_delay_ms = 2.; budget_ms = 500. }

let test_client_retries_dead_socket () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let request = P.request ~meth:"health" (Json.Obj []) in
  match
    Client.rpc_retry ~retry:(fast_retry 3) ~path:"/nonexistent/qroute.sock"
      request
  with
  | Client.Transport_failure _ ->
      checki "two retries recorded" 2 (counter "client_retries")
  | _ -> Alcotest.fail "a dead socket must be a transport failure"

let test_client_retry_budget_caps () =
  with_clean_sinks @@ fun () ->
  let retry =
    { Client.attempts = 100; base_delay_ms = 50.; max_delay_ms = 50.;
      budget_ms = 120. }
  in
  let request = P.request ~meth:"health" (Json.Obj []) in
  let t0 = Unix.gettimeofday () in
  (match Client.rpc_retry ~retry ~path:"/nonexistent/qroute.sock" request with
  | Client.Transport_failure _ -> ()
  | _ -> Alcotest.fail "expected transport failure");
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "budget bounds total time" true (elapsed < 2.0)

let test_client_recovers_via_retry () =
  (* A real server behind a real socket; the first two connects are
     injected to fail, the third succeeds — reconnect-per-attempt in
     action.  The server runs in a forked child and drains on SIGTERM. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qr_fault_test_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try Server.run_socket ~path () with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] child);
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      (* Wait for the child to bind. *)
      let rec await tries =
        if tries = 0 then Alcotest.fail "server socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.02;
          await (tries - 1)
        end
      in
      await 250;
      let request = P.request ~id:(Json.Int 1) ~meth:"health" (Json.Obj []) in
      with_plan "client.connect=raise(econnreset)#2" @@ fun () ->
      (match Client.rpc_retry ~retry:(fast_retry 4) ~path request with
      | Client.Response _ -> ()
      | Client.Server_error (err, _) ->
          Alcotest.failf "server error: %s" err.P.message
      | Client.Transport_failure msg ->
          Alcotest.failf "transport failure despite retries: %s" msg);
      checki "both injected failures consumed" 2 (Fault.fires "client.connect")

(* ------------------------------------------------------------- telemetry *)

let tp_example = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
let tid_example = "0123456789abcdef0123456789abcdef"

let traced_evil_route_line ?(id = 1) pi =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": %s, "engine": "evil"}, "trace": "%s"}|}
    id
    (Json.to_string (P.perm_to_json pi))
    tp_example

let test_degraded_request_trace_correlation () =
  (* The acceptance scenario: a request naming the broken engine degrades
     through the verification ladder, and the caller's trace_id still
     reaches (a) every span of the request tree, (b) the access-log
     record — which also flags the degradation — and (c) the echoed
     response envelope. *)
  with_clean_sinks @@ fun () ->
  let captured = ref [] in
  Log.set_sink (Some (fun line -> captured := line :: !captured));
  Log.set_level Log.Info;
  Log.set_format Log.Json;
  let finally () =
    Log.set_sink None;
    Log.set_level Log.Warn;
    Log.set_format Log.Logfmt
  in
  Fun.protect ~finally @@ fun () ->
  let session = Session.create ~config:verify_config () in
  Trace.start ();
  let response = Session.handle_line session (traced_evil_route_line rev9) in
  let spans = Trace.stop () in
  (* (a) spans: the whole tree — including the degraded re-route — is
     stamped with the caller's trace_id. *)
  checkb "spans recorded" true (List.length spans > 0);
  List.iter
    (fun (s : Trace.span) ->
      checkb (s.Trace.name ^ " carries trace_id") true
        (List.assoc_opt "trace_id" s.Trace.attrs
        = Some (Trace.String tid_example)))
    spans;
  checkb "degraded re-route traced" true
    (List.exists
       (fun (s : Trace.span) -> List.mem_assoc "degraded_to" s.Trace.attrs)
       spans);
  (* (b) access log: degraded flag and trace_id on the same record. *)
  let access =
    List.rev_map Json.of_string_exn !captured
    |> List.filter (fun doc ->
           Json.member "msg" doc = Some (Json.String "request"))
  in
  (match access with
  | [ record ] ->
      checkb "access trace_id" true
        (Json.member "trace_id" record = Some (Json.String tid_example));
      checkb "access degraded flag" true
        (Json.member "degraded" record = Some (Json.Bool true));
      checkb "access status ok" true
        (Json.member "status" record = Some (Json.String "ok"))
  | other -> Alcotest.failf "expected 1 access record, got %d" (List.length other));
  (* (c) envelope: trace echoed, schedule still correct. *)
  let doc = Json.of_string_exn response in
  checkb "trace echoed" true
    (Json.member "trace" doc = Some (Json.String tp_example));
  match Schedule.of_json (member_exn "schedule" (result_of response)) with
  | Ok sched -> checkb "rescued realizes" true (Schedule.realizes ~n:9 sched rev9)
  | Error msg -> Alcotest.failf "bad schedule json: %s" msg

let test_chaos_socket_trace_roundtrip () =
  (* Full-stack correlation through a real socket under a chaos plan: a
     forked server (access log to a temp file, plan inherited across the
     fork) degrades the first route, and the client's trace context comes
     back in the envelope and lands in the server's access log. *)
  let tag = Printf.sprintf "qr_trace_test_%d" (Unix.getpid ()) in
  let path = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  let log_path = Filename.temp_file tag ".log" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  with_plan "engine.plan=raise#1" @@ fun () ->
  match Unix.fork () with
  | 0 ->
      (try
         let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
         Unix.dup2 log Unix.stderr;
         Log.set_level Log.Info;
         Log.set_format Log.Json;
         Server.run_socket ~config:verify_config ~path ()
       with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        try Sys.remove log_path with Sys_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      let rec await tries =
        if tries = 0 then Alcotest.fail "server socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.02;
          await (tries - 1)
        end
      in
      await 250;
      let trace = Result.get_ok (Trace_context.of_traceparent tp_example) in
      let request =
        P.request ~id:(Json.Int 1) ~trace ~meth:"route"
          (Json.Obj
             [
               ("grid", P.grid_to_json grid3);
               ("perm", P.perm_to_json rev9);
               ("engine", Json.String "local");
             ])
      in
      (match Client.rpc_retry ~retry:(fast_retry 4) ~path request with
      | Client.Response envelope ->
          (* Trace echoed through the wire... *)
          (match P.response_trace envelope with
          | Some t ->
              checks "trace_id round-trips" tid_example t.Trace_context.trace_id
          | None -> Alcotest.fail "response lost the trace context");
          checkb "server_ms on the wire" true
            (P.response_server_ms envelope <> None);
          (match P.response_result envelope with
          | Ok result -> (
              match Schedule.of_json (member_exn "schedule" result) with
              | Ok sched ->
                  checkb "degraded schedule realizes" true
                    (Schedule.realizes ~n:9 sched rev9)
              | Error msg -> Alcotest.failf "bad schedule json: %s" msg)
          | Error err -> Alcotest.failf "server error: %s" err.P.message)
      | Client.Server_error (err, _) ->
          Alcotest.failf "server error: %s" err.P.message
      | Client.Transport_failure msg ->
          Alcotest.failf "transport failure: %s" msg);
      (* A second request with no explicit context: the client mints one
         and the server still echoes something well-formed. *)
      let bare = P.request ~id:(Json.Int 2) ~meth:"health" (Json.Obj []) in
      (match Client.rpc_retry ~retry:(fast_retry 4) ~path bare with
      | Client.Response envelope ->
          checkb "client-minted trace echoed" true
            (P.response_trace envelope <> None)
      | _ -> Alcotest.fail "health request failed");
      (* ...and into the forked server's access log. *)
      (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] child);
      let log_lines =
        In_channel.with_open_text log_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      let access =
        List.filter_map
          (fun line ->
            match Json.of_string line with
            | Ok doc
              when Json.member "msg" doc = Some (Json.String "request") ->
                Some doc
            | _ -> None)
          log_lines
      in
      checkb "two access records" true (List.length access = 2);
      let routed =
        List.find_opt
          (fun doc ->
            Json.member "method" doc = Some (Json.String "route"))
          access
      in
      (match routed with
      | Some record ->
          checkb "access log carries the caller's trace_id" true
            (Json.member "trace_id" record
            = Some (Json.String tid_example));
          checkb "access log flags the degradation" true
            (Json.member "degraded" record = Some (Json.Bool true))
      | None -> Alcotest.fail "no route access record in the server log")

let () =
  Alcotest.run "qr_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "grammar" `Quick test_parse_plan;
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "disarmed no-ops" `Quick test_disarmed_noops;
          Alcotest.test_case "point raises" `Quick test_point_raises;
          Alcotest.test_case "point errno" `Quick test_point_errno;
          Alcotest.test_case "fire count caps" `Quick test_fire_count_caps;
          Alcotest.test_case "action applicability" `Quick
            test_action_applicability;
          Alcotest.test_case "truncate bounds" `Quick test_truncate_bounds;
          Alcotest.test_case "corrupt mangles" `Quick
            test_corrupt_applies_mangler;
          Alcotest.test_case "seeded determinism" `Quick
            test_probability_deterministic;
          Alcotest.test_case "arm from env" `Quick test_arm_from_env;
        ] );
      ( "io",
        [
          Alcotest.test_case "torn writes complete" `Quick
            test_write_all_torn_writes;
          Alcotest.test_case "eintr storm" `Quick test_write_all_eintr_storm;
          Alcotest.test_case "real epipe" `Quick test_write_all_real_epipe;
          Alcotest.test_case "injected epipe" `Quick
            test_write_all_injected_epipe;
          Alcotest.test_case "read retries and resets" `Quick
            test_read_chunk_eintr_and_reset;
          Alcotest.test_case "read retries wouldblock" `Quick
            test_read_chunk_eagain;
        ] );
      ( "verified",
        [
          Alcotest.test_case "validate invariant" `Quick test_validate;
          Alcotest.test_case "degrades a bad engine" `Quick
            test_verified_degrades_bad_engine;
          Alcotest.test_case "rescues a raising engine" `Quick
            test_verified_rescues_raising_engine;
          Alcotest.test_case "chain exhaustion raises" `Quick
            test_verified_chain_exhaustion;
          Alcotest.test_case "healthy pass-through" `Quick
            test_verified_pass_through;
        ] );
      ( "session",
        [
          Alcotest.test_case "cache corruption self-heals" `Quick
            test_session_cache_corruption_self_heals;
          Alcotest.test_case "cache errors are misses" `Quick
            test_session_cache_errors_are_misses;
          Alcotest.test_case "dispatch crash isolated" `Quick
            test_session_dispatch_crash_isolated;
          Alcotest.test_case "consecutive error tracking" `Quick
            test_session_consecutive_errors;
          Alcotest.test_case "batch deadline aborts mid-plan" `Quick
            test_batch_deadline_aborts_mid_plan;
          Alcotest.test_case "batch 0ms deadline" `Quick
            test_batch_zero_deadline_all_items_error;
          Alcotest.test_case "verify health report" `Quick
            test_session_verify_health_report;
          Alcotest.test_case "verify serves the evil engine" `Quick
            test_session_verify_serves_evil_engine;
          Alcotest.test_case "exhaustion is a typed error" `Quick
            test_session_unverified_evil_exhaustion_is_typed;
        ] );
      ( "serve_fd",
        [
          Alcotest.test_case "end to end" `Quick test_serve_fd_end_to_end;
          Alcotest.test_case "peer closes mid-response" `Quick
            test_serve_fd_peer_closes_mid_response;
          Alcotest.test_case "error budget sheds" `Quick
            test_serve_fd_error_budget_sheds;
        ] );
      ( "chaos",
        List.map
          (fun (name, plan, seed) ->
            Alcotest.test_case name `Quick (chaos_case ~plan ~seed))
          chaos_scenarios
        @ [
            Alcotest.test_case "repeat hits under corruption" `Quick
              test_chaos_repeat_hits_under_corruption;
            Alcotest.test_case "mixed-fault soak" `Quick
              test_chaos_soak_mixed_faults;
          ] );
      ( "telemetry",
        [
          Alcotest.test_case "degraded request trace correlation" `Quick
            test_degraded_request_trace_correlation;
          Alcotest.test_case "socket trace round-trip under chaos" `Quick
            test_chaos_socket_trace_roundtrip;
        ] );
      ( "client",
        [
          Alcotest.test_case "retryable classification" `Quick
            test_retryable_classification;
          Alcotest.test_case "dead socket retries" `Quick
            test_client_retries_dead_socket;
          Alcotest.test_case "retry budget caps" `Quick
            test_client_retry_budget_caps;
          Alcotest.test_case "recovers via retry" `Quick
            test_client_recovers_via_retry;
        ] );
    ]
