(* qroute: command-line front-end for the routing stack.

   Subcommands:
     route      route one permutation on a grid and report depth/size
     sweep      sweep grid sizes and workloads, printing a depth/time table
     transpile  transpile a QASM-subset circuit file onto a grid
     gen        emit a stock circuit in the QASM-subset format
     stats      describe a workload permutation
     engines    list the registered routing engines
     serve      long-lived routing service (NDJSON over stdio or a socket)
     request    one-shot client for a running serve --socket instance

   Engines come from the central registry — anything registered (including
   by a third-party library linked into a custom build) is addressable by
   name, with no CLI change needed. *)

open Qroute
open Cmdliner

(* Referencing only module aliases never forces the umbrella unit's
   initializer, so complete the registry explicitly (idempotent). *)
let () = Token_engines.register ()

(* Chaos plans arm through the environment (QR_FAULTS / QR_FAULTS_SEED),
   so the CI harness can fault-inject a release binary without flags. *)
let () =
  match Fault.arm_from_env () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "error: bad %s: %s\n" Fault.env_var msg;
      exit 2

let engine_conv =
  let parse s =
    match Router_registry.find s with
    | Some engine -> Ok engine
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown engine %S (registered: %s)" s
               (String.concat ", " (Router_registry.names ()))))
  in
  Arg.conv
    ( parse,
      fun fmt e -> Format.pp_print_string fmt e.Router_intf.name )

let config_conv =
  let parse s =
    match
      Result.bind (Router_config.of_string s) Router_registry.check_config
    with
    | Ok config -> Ok config
    | Error msg -> Error (`Msg ("bad --config: " ^ msg))
  in
  Arg.conv (parse, Router_config.pp)

let config_arg =
  Arg.(
    value
    & opt config_conv Router_config.default
    & info [ "config" ] ~docv:"CONFIG"
        ~doc:
          "Router configuration as comma-separated key=value pairs, e.g.            $(b,discovery=whole,transpose=off).  Keys: discovery (doubling,            whole, fixed:<h>), assignment (mcbbm, arbitrary), transpose,            compaction (on/off), trials, seed, best (name+name).")

let kind_conv =
  let parse s =
    match Generators.of_name s with
    | Some kind -> Ok kind
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown workload %S (try: random, block:4, overlap:4x32, \
                skinny:8, reversal, rowshift:1, colshift:1, mirror, identity)"
               s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Generators.name k))

(* Grid sides and seed counts: 0 or less is a usage error, not an
   uncaught [Invalid_argument] from the library. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k > 0 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let rows_arg =
  Arg.(
    value & opt positive_int 8
    & info [ "rows"; "m" ] ~docv:"M" ~doc:"Grid rows.")

let cols_arg =
  Arg.(
    value & opt positive_int 8
    & info [ "cols"; "n" ] ~docv:"N" ~doc:"Grid columns.")

(* A pair of sides whose product overflows is a usage error too, found
   before any grid is built. *)
let too_many_vertices rows cols =
  if rows > max_int / cols then
    Some (Printf.sprintf "a %dx%d grid has too many vertices" rows cols)
  else None

let grid_arg =
  let check rows cols =
    match too_many_vertices rows cols with
    | Some msg -> `Error (true, msg)
    | None -> `Ok (rows, cols)
  in
  Term.(ret (const check $ rows_arg $ cols_arg))

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let strategy_arg =
  Arg.(
    value
    & opt engine_conv (Router_registry.get "best")
    & info [ "strategy"; "s" ] ~docv:"ENGINE"
        ~doc:
          "Routing engine by registry name (see $(b,qroute engines) for            the list).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record per-phase spans and write a Chrome trace_event JSON file \
           to $(docv) (load it in chrome://tracing or Perfetto); also \
           prints a per-phase cost summary.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record routing counters/gauges/histograms and write a JSON \
           snapshot to $(docv).")

(* Bracket a run with span/metric collection when either sink is
   requested; export afterwards.  With neither flag the run stays on the
   no-op fast path. *)
let with_observability ~trace ~metrics f =
  let observing = trace <> None || metrics <> None in
  if observing then begin
    Trace.start ();
    Metrics.reset ();
    Metrics.enable ()
  end;
  let write_failed = ref false in
  let write path json =
    try
      Out_channel.with_open_text path (fun oc -> Obs_json.to_channel oc json);
      true
    with Sys_error msg ->
      Printf.eprintf "error: cannot write %s: %s\n" path msg;
      write_failed := true;
      false
  in
  let finish () =
    if observing then begin
      let spans = Trace.stop () in
      Metrics.disable ();
      Option.iter
        (fun path ->
          if write path (Trace.to_chrome_json spans) then begin
            Printf.printf "\nper-phase cost summary:\n%s"
              (Trace.summary_table spans);
            Printf.printf "trace (%d spans) written to %s\n"
              (List.length spans) path
          end)
        trace;
      Option.iter
        (fun path ->
          if write path (Metrics.to_json ()) then
            Printf.printf "metrics written to %s\n" path)
        metrics
    end
  in
  let result = Fun.protect ~finally:finish f in
  if !write_failed then exit 1;
  result

(* ------------------------------------------------------------------ route *)

let route_cmd =
  let kind =
    Arg.(
      value
      & opt kind_conv Generators.Random
      & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"Workload permutation class.")
  in
  let show =
    Arg.(value & flag & info [ "show" ] ~doc:"Print the matching layers.")
  in
  let run (rows, cols) seed engine config kind show trace metrics =
    with_observability ~trace ~metrics @@ fun () ->
    let grid = Grid.make ~rows ~cols in
    let pi = Generators.generate grid kind (Rng.create seed) in
    let (sched, seconds) =
      Timer.time (fun () -> Router_intf.route_grid ~config engine grid pi)
    in
    assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
    Printf.printf "grid %dx%d  workload %s  strategy %s\n" rows cols
      (Generators.name kind) engine.Router_intf.name;
    Printf.printf
      "depth %d  swaps %d  displacement-bound %d  time %.6fs\n"
      (Schedule.depth sched) (Schedule.size sched)
      (Perm.max_distance (fun u v -> Grid.manhattan grid u v) pi)
      seconds;
    if show then begin
      Printf.printf "\ndestinations (* = displaced):\n%s"
        (Viz.permutation_ascii grid pi);
      Printf.printf "\nschedule:\n%s" (Viz.schedule_ascii grid sched);
      Printf.printf "\nswap activity per vertex:\n%s"
        (Viz.occupancy_ascii grid sched)
    end
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route one permutation on a grid")
    Term.(
      const run $ grid_arg $ seed_arg $ strategy_arg $ config_arg $ kind $ show
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ sweep *)

let sweep_cmd =
  let sizes =
    let check sides =
      match List.find_map (fun side -> too_many_vertices side side) sides with
      | Some msg -> `Error (true, msg)
      | None -> `Ok sides
    in
    let sides =
      Arg.(
        value
        & opt (list positive_int) [ 4; 8; 12; 16 ]
        & info [ "sizes" ] ~docv:"N,..." ~doc:"Square grid side lengths.")
    in
    Term.(ret (const check $ sides))
  in
  let seeds =
    Arg.(
      value & opt positive_int 3
      & info [ "seeds" ] ~docv:"K" ~doc:"Seeds per point.")
  in
  let engines_arg =
    Arg.(
      value
      & opt (some (list engine_conv)) None
      & info [ "engines" ] ~docv:"NAME,..."
          ~doc:
            "Engines to sweep (default: the whole registry).")
  in
  let run sizes seeds engines config trace metrics =
    with_observability ~trace ~metrics @@ fun () ->
    let engines =
      match engines with Some e -> e | None -> Router_registry.all ()
    in
    Printf.printf "%-6s %-12s %-11s %8s %8s %10s\n" "grid" "workload"
      "strategy" "depth" "swaps" "time(s)";
    List.iter
      (fun side ->
        let grid = Grid.make ~rows:side ~cols:side in
        List.iter
          (fun kind ->
            List.iter
              (fun engine ->
                let depths = ref [] and times = ref [] in
                for seed = 0 to seeds - 1 do
                  let pi = Generators.generate grid kind (Rng.create seed) in
                  let (sched, seconds) =
                    Timer.time (fun () ->
                        Router_intf.route_grid ~config engine grid pi)
                  in
                  depths := float_of_int (Schedule.depth sched) :: !depths;
                  times := seconds :: !times
                done;
                Printf.printf "%-6s %-12s %-11s %8.1f %8s %10.5f\n"
                  (Printf.sprintf "%dx%d" side side)
                  (Generators.name kind) engine.Router_intf.name
                  (Stats.mean (Array.of_list !depths))
                  "-"
                  (Stats.mean (Array.of_list !times)))
              engines)
          (Generators.paper_kinds grid))
      sizes
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Depth/time sweep over grid sizes and workloads")
    Term.(
      const run $ sizes $ seeds $ engines_arg $ config_arg $ trace_arg
      $ metrics_arg)

(* -------------------------------------------------------------- transpile *)

let transpile_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Input circuit (QASM subset).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write the physical circuit here.")
  in
  let run (rows, cols) engine config input output trace metrics =
    match Qasm.load input with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok logical ->
        let q = Circuit.num_qubits logical in
        (* Checked before the grid is built, as the server checks a
           request's grid against its permutation. *)
        if rows > q / cols || rows * cols <> q then begin
          Printf.eprintf
            "error: circuit has %d qubits but the %dx%d grid has %d vertices\n"
            q rows cols (rows * cols);
          exit 1
        end;
        let grid = Grid.make ~rows ~cols in
        with_observability ~trace ~metrics @@ fun () ->
        let (result, seconds) =
          Timer.time (fun () ->
              Transpile.run_grid ~engine ~config grid logical)
        in
        assert (Transpile.verify_feasible (Grid.graph grid) result);
        Printf.printf
          "logical:  size %d  depth %d  two-qubit %d\n"
          (Circuit.size logical) (Circuit.depth logical)
          (Circuit.two_qubit_count logical);
        Printf.printf
          "physical: size %d  depth %d  swaps %d  routed-slices %d  \
           swap-layers %d  time %.4fs\n"
          (Circuit.size result.physical)
          (Circuit.depth result.physical)
          (Circuit.swap_count result.physical)
          result.routed_slices result.swap_layers seconds;
        Option.iter (fun path -> Qasm.save path result.physical) output
  in
  Cmd.v
    (Cmd.info "transpile" ~doc:"Transpile a circuit file onto a grid")
    Term.(
      const run $ grid_arg $ strategy_arg $ config_arg $ input $ output
      $ trace_arg $ metrics_arg)

(* -------------------------------------------------------------------- gen *)

let gen_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("qft", `Qft); ("ghz", `Ghz); ("ising", `Ising);
                            ("random", `Random) ])) None
      & info [] ~docv:"KIND" ~doc:"Circuit family: qft, ghz, ising, random.")
  in
  let gates =
    Arg.(value & opt int 64 & info [ "gates" ] ~docv:"G"
           ~doc:"Gate count for random circuits.")
  in
  let run (rows, cols) seed which gates =
    let grid = Grid.make ~rows ~cols in
    let n = Grid.size grid in
    let circuit =
      match which with
      | `Qft -> Library.qft n
      | `Ghz -> Library.ghz n
      | `Ising -> Library.ising_trotter_2d grid ~steps:1 ~theta:0.1
      | `Random -> Library.random_two_qubit (Rng.create seed) ~num_qubits:n ~gates
    in
    print_string (Qasm.print circuit)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a stock circuit in the QASM subset")
    Term.(const run $ grid_arg $ seed_arg $ which $ gates)

(* ------------------------------------------------------------------ stats *)

let stats_cmd =
  let kind =
    Arg.(
      value
      & opt kind_conv Generators.Random
      & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"Workload permutation class.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Instead of describing a workload, poll a running $(b,serve \
             --socket) instance's $(b,stats) method and print its one-call \
             operational snapshot (health + plan cache + metrics) as \
             JSON.")
  in
  let run (rows, cols) seed kind socket =
    match socket with
    | Some path -> (
        let request =
          Server_protocol.request ~id:(Obs_json.String "stats") ~meth:"stats"
            (Obs_json.Obj [])
        in
        match Server_client.rpc ~path request with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
        | Ok response -> (
            match Server_protocol.response_result response with
            | Ok result -> print_endline (Obs_json.to_string result)
            | Error err ->
                Printf.eprintf "error: %s: %s\n"
                  (Server_protocol.code_to_string err.Server_protocol.code)
                  err.Server_protocol.message;
                exit 3))
    | None ->
        let grid = Grid.make ~rows ~cols in
        let pi = Generators.generate grid kind (Rng.create seed) in
        Format.printf "workload %s on %dx%d:@.%a@." (Generators.name kind)
          rows cols Perm_stats.pp
          (Perm_stats.compute grid pi);
        let histogram = Perm_stats.displacement_histogram grid pi in
        Format.printf "displacement histogram:@.";
        Array.iteri
          (fun d count ->
            if count > 0 then Format.printf "  d=%d: %d@." d count)
          histogram;
        Format.printf "depth lower bound: %d@."
          (Bounds.depth_lower_bound grid pi)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Describe a workload permutation, or snapshot a running server's \
          telemetry")
    Term.(const run $ grid_arg $ seed_arg $ kind $ socket)

(* ---------------------------------------------------------------- engines *)

let engines_cmd =
  let names_only =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:"Print bare engine names, one per line (for scripting).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the registry as JSON (name and capabilities) — the same \
             document the service's $(b,engines) method returns.")
  in
  let run names_only json =
    if json then
      print_endline (Obs_json.to_string (Server_protocol.engines_json ()))
    else if names_only then
      List.iter print_endline (Router_registry.names ())
    else begin
      Printf.printf "%-11s %-8s %-10s %-8s\n" "engine" "inputs" "transpose"
        "partial";
      List.iter
        (fun e ->
          let caps = e.Router_intf.capabilities in
          Printf.printf "%-11s %-8s %-10s %-8s\n" e.Router_intf.name
            (if caps.Router_intf.grid_only then "grid" else "any")
            (if caps.Router_intf.supports_transpose then "yes" else "no")
            (if caps.Router_intf.supports_partial then "yes" else "no"))
        (Router_registry.all ())
    end
  in
  Cmd.v
    (Cmd.info "engines" ~doc:"List the registered routing engines")
    Term.(const run $ names_only $ json)

(* ------------------------------------------------------------------ serve *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve a Unix-domain socket at $(docv).")

(* Telemetry knobs shared by the serving modes (DESIGN.md §12). *)

let log_level_conv =
  let parse s =
    match Log.level_of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Log.level_name l))

let log_format_conv =
  let parse s =
    match Log.format_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt f ->
        Format.pp_print_string fmt
          (match f with Log.Logfmt -> "logfmt" | Log.Json -> "json") )

let log_level_arg ~default =
  Arg.(
    value & opt log_level_conv default
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Structured-log threshold on stderr: debug, info, warn or error.  \
           At $(b,info) every request gets an access-log record (method, \
           status, bytes, ms, trace_id, cache outcome).")

let log_format_arg =
  Arg.(
    value & opt log_format_conv Log.Logfmt
    & info [ "log-format" ] ~docv:"FMT"
        ~doc:"Structured-log record shape: logfmt or json (one per line).")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-file" ] ~docv:"PATH"
        ~doc:
          "Write the Prometheus text exposition to $(docv) (atomic \
           tmp+rename) about every 2 seconds and at shutdown — file-based \
           scraping without an HTTP listener.")

let serve_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve newline-delimited JSON on stdin/stdout (one request per \
             line, one response per line).")
  in
  let cache_capacity =
    Arg.(
      value & opt int Server_session.default_config.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Plan-cache entries kept (LRU); 0 disables caching.")
  in
  let max_batch =
    Arg.(
      value & opt int Server_session.default_config.max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Largest accepted route_batch; bigger batches get the \
             $(b,overloaded) error.")
  in
  let max_inflight =
    Arg.(
      value & opt int Server_session.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Pipelined requests queued per poll cycle before shedding with \
             $(b,overloaded) (socket mode).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-schedules" ]
          ~doc:
            "Check every schedule (fresh or cached) against the routing \
             invariant before responding; a failing engine degrades through \
             the fallback chain and corrupted cache entries are evicted and \
             replanned.  Failures surface in the $(b,health) report and the \
             $(b,router_verify_failures) / $(b,router_degraded) metrics.")
  in
  let error_budget =
    Arg.(
      value & opt int Server_session.default_config.error_budget
      & info [ "error-budget" ] ~docv:"N"
          ~doc:
            "Consecutive error responses a connection may accumulate before \
             the socket server closes it; 0 disables shedding.")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains serving requests (socket mode).  1 (default) \
             answers requests inline on the event loop's domain, with one \
             session for every connection; N > 1 runs them on a pool of N \
             domains and fans route_batch items across it.  Replies, their \
             order, shedding and error budgets are the same at every \
             count.")
  in
  let max_line_bytes =
    Arg.(
      value & opt int Server_session.default_config.max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Largest request line (or buffered partial line) a connection \
             may send; past it the server replies $(b,invalid_request) and \
             closes the connection ($(b,--stdio): answers, then exits).")
  in
  let max_outbox_bytes =
    Arg.(
      value & opt int Server_session.default_config.max_outbox_bytes
      & info [ "max-outbox-bytes" ] ~docv:"N"
          ~doc:
            "Response bytes queued for a connection whose client is not \
             reading; past it the connection is closed \
             ($(b,server_slow_client_closes)).  A stalled reader only ever \
             blocks itself — the readiness loop keeps serving everyone \
             else.")
  in
  let hung_request_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "hung-request-ms" ] ~docv:"MS"
          ~doc:
            "Watchdog budget (pool mode): a request running longer is \
             cancelled cooperatively; a worker that then stops making \
             progress is declared lost, its client gets \
             $(b,internal_error), and the domain is respawned \
             ($(b,server_hung_requests), $(b,server_worker_restarts)).")
  in
  let queue_delay_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-delay-ms" ] ~docv:"MS"
          ~doc:
            "Adaptive admission target (pool mode): when the measured queue \
             delay EWMA exceeds $(docv), new requests are shed with \
             $(b,overloaded) plus a $(b,retry_after_ms) hint.")
  in
  let max_rss_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rss-mb" ] ~docv:"MB"
          ~doc:
            "Memory brownout threshold (socket mode, at every worker \
             count): past this max-RSS high-water mark the plan cache is \
             shrunk and batch requests rejected.")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 0
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:
            "Trip an engine's circuit breaker open after $(docv) failures \
             in its rolling outcome window (requires \
             $(b,--verify-schedules); 0 disables breakers).")
  in
  let breaker_cooldown_ms =
    Arg.(
      value & opt int 2000
      & info [ "breaker-cooldown-ms" ] ~docv:"MS"
          ~doc:
            "How long a tripped breaker stays open before admitting \
             half-open probe requests.")
  in
  let run stdio socket workers cache_capacity max_batch max_inflight verify
      error_budget max_line_bytes max_outbox_bytes hung_request_ms
      queue_delay_ms max_rss_mb breaker_threshold breaker_cooldown_ms
      metrics_file log_level log_format =
    let breaker =
      if breaker_threshold <= 0 then None
      else
        Some
          {
            Qr_route.Breaker.default_config with
            Qr_route.Breaker.threshold = breaker_threshold;
            window = max Qr_route.Breaker.default_config.window breaker_threshold;
            cooldown_ns = Int64.mul (Int64.of_int (max 1 breaker_cooldown_ms)) 1_000_000L;
          }
    in
    let config =
      {
        Server_session.cache_capacity;
        max_batch;
        max_inflight;
        verify;
        error_budget;
        max_line_bytes;
        max_outbox_bytes;
        hung_request_ms;
        queue_delay_target_ms = queue_delay_ms;
        max_rss_mb;
        breaker;
      }
    in
    (* Server mode raises the default level to Info: access logs go to
       stderr while NDJSON responses own stdout. *)
    Log.set_level log_level;
    Log.set_format log_format;
    if workers < 1 then begin
      Printf.eprintf "error: --workers must be at least 1\n";
      exit 2
    end;
    match (stdio, socket) with
    | true, Some _ ->
        Printf.eprintf "error: --stdio and --socket are mutually exclusive\n";
        exit 2
    | true, None ->
        if workers > 1 then begin
          Printf.eprintf "error: --workers requires --socket\n";
          exit 2
        end;
        Server.run_stdio ~config ?metrics_file ()
    | false, Some path -> (
        try Server.run_socket ~config ?metrics_file ~workers ~path () with
        | Failure msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
        | Unix.Unix_error (err, fn, _) ->
            Printf.eprintf "error: %s: %s\n" fn (Unix.error_message err);
            exit 1)
    | false, None ->
        Printf.eprintf "error: pass --stdio or --socket PATH\n";
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve routing requests over newline-delimited JSON"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Long-lived routing service: one JSON request per line, one \
              response per line.  Methods: route, route_batch, transpile, \
              engines, health, metrics, stats.  Repeated identical route \
              requests are answered from an LRU plan cache; per-request \
              $(b,deadline_ms) budgets return $(b,deadline_exceeded) \
              errors instead of stalling the connection.  SIGINT/SIGTERM \
              drain gracefully.  See DESIGN.md \xC2\xA710 for the wire \
              protocol, \xC2\xA711 for the fault model \
              ($(b,--verify-schedules), $(b,QR_FAULTS)) and \xC2\xA712 for \
              the telemetry plane ($(b,--metrics-file), access logs, \
              trace propagation).";
         ])
    Term.(
      const run $ stdio $ socket_arg $ workers $ cache_capacity $ max_batch
      $ max_inflight $ verify $ error_budget $ max_line_bytes
      $ max_outbox_bytes $ hung_request_ms $ queue_delay_ms $ max_rss_mb
      $ breaker_threshold
      $ breaker_cooldown_ms $ metrics_file_arg
      $ log_level_arg ~default:Log.Info $ log_format_arg)

(* ---------------------------------------------------------------- request *)

let request_cmd =
  let meth =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"METHOD"
          ~doc:
            "Method to call: route, route_batch, transpile, engines, \
             health, metrics, stats.")
  in
  let params =
    Arg.(
      value & opt string "{}"
      & info [ "params" ] ~docv:"JSON" ~doc:"Parameters as a JSON object.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request time budget.")
  in
  let id =
    Arg.(
      value & opt string "cli"
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transport failures and $(b,overloaded) responses up to \
             $(docv) extra times with jittered backoff (typed request \
             errors are never retried).  Retries bump the \
             $(b,client_retries) metric.")
  in
  let traceparent =
    Arg.(
      value
      & opt (some string) None
      & info [ "traceparent" ] ~docv:"TP"
          ~doc:
            "Forward an existing trace context \
             (00-<trace_id>-<parent_id>-01) instead of minting one; the \
             server adopts its trace_id for every span and access-log \
             record of the request, and the response echoes it.")
  in
  let run socket meth params deadline_ms id retries traceparent =
    let path =
      match socket with
      | Some path -> path
      | None ->
          Printf.eprintf "error: --socket PATH is required\n";
          exit 2
    in
    let params =
      match Obs_json.of_string params with
      | Ok (Obs_json.Obj _ as p) -> p
      | Ok _ ->
          Printf.eprintf "error: --params must be a JSON object\n";
          exit 2
      | Error msg ->
          Printf.eprintf "error: bad --params: %s\n" msg;
          exit 2
    in
    let trace =
      match traceparent with
      | None -> None
      | Some tp -> (
          match Trace_context.of_traceparent tp with
          | Ok t -> Some t
          | Error msg ->
              Printf.eprintf "error: bad --traceparent: %s\n" msg;
              exit 2)
    in
    let request =
      Server_protocol.request ~id:(Obs_json.String id) ?deadline_ms ?trace
        ~meth params
    in
    let retry =
      { Server_client.default_retry with attempts = 1 + max 0 retries }
    in
    match Server_client.rpc_retry ~retry ~path request with
    | Server_client.Transport_failure msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Server_client.Response response ->
        print_endline (Obs_json.to_string response)
    | Server_client.Server_error (_, response) ->
        print_endline (Obs_json.to_string response);
        exit 3
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running serve --socket instance"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"the server returned a result";
           Cmd.Exit.info 1
             ~doc:
               "transport failure: could not connect, send, or read a \
                response (after any $(b,--retries))";
           Cmd.Exit.info 2 ~doc:"bad command line";
           Cmd.Exit.info 3
             ~doc:
               "the server answered with a typed error envelope (printed \
                on stdout), e.g. $(b,deadline_exceeded) or \
                $(b,invalid_params)";
         ])
    Term.(
      const run $ socket_arg $ meth $ params $ deadline_ms $ id $ retries
      $ traceparent)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "qroute" ~version:"1.0.0"
             ~doc:"Locality-aware qubit routing for grid architectures")
          [ route_cmd; sweep_cmd; transpile_cmd; gen_cmd; stats_cmd;
            engines_cmd; serve_cmd; request_cmd ]))
