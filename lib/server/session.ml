module Json = Qr_obs.Json
module Trace = Qr_obs.Trace
module Trace_context = Qr_obs.Trace_context
module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Fault = Qr_fault.Fault
module Timer = Qr_util.Timer
module Cancel = Qr_util.Cancel
module Resource = Qr_util.Resource
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Router_intf = Qr_route.Router_intf
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry
module Breaker = Qr_route.Breaker
module Circuit = Qr_circuit.Circuit
module Qasm = Qr_circuit.Qasm
module Transpile = Qr_circuit.Transpile
module P = Protocol

let c_requests =
  Metrics.counter "server_requests" ~help:"Requests dispatched by sessions."

let c_errors =
  Metrics.counter "server_errors" ~help:"Error responses sent by sessions."

let c_cache_errors =
  Metrics.counter "plan_cache_errors"
    ~help:"Plan-cache operations that raised and were absorbed."

let c_cache_invalid =
  Metrics.counter "plan_cache_invalid"
    ~help:"Cache hits that failed re-verification and were replanned."

let h_request_ms =
  Metrics.histogram "server_request_ms" ~buckets:Metrics.latency_buckets
    ~help:"Server-side request wall time in milliseconds."

(* Process-level gauges, refreshed on every metrics/stats exposition
   (and by the server's --metrics-file writer). *)
let g_uptime =
  Metrics.gauge "process_uptime_seconds"
    ~help:"Seconds since process start (monotonic clock)."

let g_max_rss =
  Metrics.gauge "process_max_rss_kb"
    ~help:"Peak resident set size in kilobytes (getrusage)."

let g_gc_major =
  Metrics.gauge "process_gc_major_words"
    ~help:"Words allocated in the OCaml major heap since start."

let process_start_ns = Timer.now_ns ()

let refresh_process_gauges () =
  Metrics.set g_uptime
    (Int64.to_float (Int64.sub (Timer.now_ns ()) process_start_ns) /. 1e9);
  Metrics.set g_max_rss (float_of_int (Resource.max_rss_kb ()));
  Metrics.set g_gc_major (Resource.gc_major_words ())

type config = {
  cache_capacity : int;
  max_batch : int;
  max_inflight : int;
  verify : bool;
  error_budget : int;
  max_line_bytes : int;
  max_outbox_bytes : int;
  hung_request_ms : int option;
  queue_delay_target_ms : int option;
  max_rss_mb : int option;
  breaker : Breaker.config option;
}

let default_config =
  {
    cache_capacity = 128;
    max_batch = 64;
    max_inflight = 32;
    verify = false;
    error_budget = 32;
    max_line_bytes = 1 lsl 20;
    max_outbox_bytes = 4 lsl 20;
    hung_request_ms = None;
    queue_delay_target_ms = None;
    max_rss_mb = None;
    breaker = None;
  }

(* What the access log reports about the request just handled; filled by
   [respond], read back by [handle_line] once the response line (and so
   its byte count) exists. *)
type access = {
  a_meth : string;
  a_status : string;  (* "ok" or the wire error code *)
  a_ms : float;
  a_trace : Trace_context.t option;
  a_cached : bool option;  (* plan-cache outcome, when the method routed *)
  a_degraded : bool;  (* the request degraded through the fallback chain *)
}

type t = {
  config : config;
  cache : Plan_cache.t;
  started_ns : int64;
  session_id : int;
  inflight_probe : unit -> int;
  pool : Worker_pool.t option;  (* fan route_batch items across workers *)
  worker : int option;  (* owning worker's index, for access logs *)
  reply : Buffer.t;  (* every reply is rendered here, on this domain *)
  mutable last_grid : Grid.t option;  (* reused while the shape repeats *)
  mutable served : int;
  mutable last_cached : bool option;
  mutable last_access : access option;
}

(* A reply longer than this gives its buffer back once it is sent, so
   one large reply does not pin its memory in the session. *)
let reply_release_bytes = 1 lsl 20

let next_session_id = Atomic.make 0

let create ?(config = default_config) ?cache ?(inflight_probe = fun () -> 0)
    ?pool ?worker () =
  (* The grid engines register with qr_route itself; completing the
     registry here means a server embedded without the umbrella still
     serves ats/ats-serial (idempotent). *)
  Qr_token.Engines.register ();
  let cache =
    match cache with
    | Some c -> c
    | None -> Plan_cache.create ~capacity:config.cache_capacity ()
  in
  {
    config;
    cache;
    started_ns = Timer.now_ns ();
    session_id = 1 + Atomic.fetch_and_add next_session_id 1;
    inflight_probe;
    pool;
    worker;
    reply = Buffer.create 4096;
    last_grid = None;
    served = 0;
    last_cached = None;
    last_access = None;
  }

let cache t = t.cache
let requests_served t = t.served

(* ----------------------------------------------------- param extraction *)

let ( let* ) = Result.bind

(* [vertices] is how many vertices the request routes over: the perm's
   length or the circuit's qubit count.  The grid is built only when it
   has exactly that many (DESIGN.md §14, "Input hardening"), and only
   when its shape differs from the last request's. *)
let grid_of_dims t ~vertices rows cols =
  let* rows, cols = P.grid_dims ~vertices rows cols in
  match t.last_grid with
  | Some grid when Grid.rows grid = rows && Grid.cols grid = cols -> Ok grid
  | _ ->
      let grid = Grid.make ~rows ~cols in
      t.last_grid <- Some grid;
      Ok grid

let grid_fields params =
  match Json.member "grid" params with
  | None -> Error "missing grid"
  | Some g -> P.grid_fields_of_json g

let parse_grid t ~vertices params =
  let* rows, cols = grid_fields params in
  grid_of_dims t ~vertices rows cols

let perm_length = function
  | Json.List items -> Ok (List.length items)
  | _ -> Error "perm: expected a list of integers"

(* The engine a request names, [best] when it names none. *)
let engine_named = function
  | None -> Ok (Router_registry.get "best")
  | Some name -> (
      match Router_registry.find name with
      | Some engine -> Ok engine
      | None ->
          Error
            (Printf.sprintf "unknown engine %S (registered: %s)" name
               (String.concat ", " (Router_registry.names ()))))

let parse_engine params =
  match Json.member "engine" params with
  | None -> engine_named None
  | Some (Json.String name) -> engine_named (Some name)
  | Some _ -> Error "engine: expected a string"

let parse_config params =
  match Json.member "config" params with
  | None -> Ok Router_config.default
  | Some j -> P.config_of_json j

(* -------------------------------------------------------------- methods *)

(* Run [f] in a request's scope on the calling domain: [cancel] as the
   ambient token the routing hot loops poll, and [trace_id] stamped on
   every span.  [respond] enters it on the session's domain, and every
   [route_batch] item fanned to a pool domain enters it again there. *)
let in_scope ~cancel ~trace_id f =
  Cancel.with_ambient cancel (fun () ->
      let prev = Trace.trace_id () in
      Trace.set_trace_id trace_id;
      Fun.protect ~finally:(fun () -> Trace.set_trace_id prev) f)

(* Internal control flow for dispatch outcomes that are not parameter
   errors; [respond] maps them to their wire error codes. *)
exception Overloaded_batch of string
exception Unknown_method of string

(* Wrap the engine in the verified-routing degradation ladder when the
   session runs with --verify-schedules; the ladder also feeds the
   engine's circuit breaker when one is configured, so a persistently
   failing engine is skipped (straight to the fallbacks) until its
   half-open probes succeed. *)
let effective_engine t engine =
  if t.config.verify then
    let breaker =
      Option.map
        (fun config ->
          Breaker.get_or_create ~config engine.Router_intf.name)
        t.config.breaker
    in
    Router_registry.verified ?breaker engine
  else engine

(* One routing call behind the cache: a hit returns the stored schedule
   (byte-identical response), a miss plans and stores the result.

   Cache trouble must never fail a request that routing itself could
   answer: a raising lookup counts as a miss, a raising insert serves
   the freshly planned schedule uncached (plan_cache_errors counts
   both).  In verify mode every hit is re-checked against the routing
   invariant; a hit that no longer verifies (bit rot, a chaos plan's
   [cache.find=corrupt], a poisoned entry) is evicted and replanned —
   the self-healing path ([plan_cache_invalid]).

   The key holds the configuration the engine routes with, so requests
   that differ only in fields the engine does not read share one entry. *)
let routed t grid pi engine config =
  let key =
    Plan_cache.key ~grid ~pi ~engine:engine.Router_intf.name
      ~config:(engine.Router_intf.normalize config)
  in
  let plan () =
    Router_intf.route ~config (effective_engine t engine)
      (Router_intf.Grid_input (grid, pi))
  in
  let compute () =
    let sched = plan () in
    (try Plan_cache.add t.cache key sched
     with _ -> Metrics.incr c_cache_errors);
    (sched, false)
  in
  let hit =
    try Plan_cache.find t.cache key
    with _ ->
      Metrics.incr c_cache_errors;
      None
  in
  (* [routed] itself leaves [t.last_cached] alone: batch items may run
     it concurrently on several domains, and only the single-route path
     feeds the access log's [cached] field. *)
  match hit with
  | None -> compute ()
  | Some sched when not t.config.verify -> (sched, true)
  | Some sched -> (
      match
        Router_registry.validate (Router_intf.Grid_input (grid, pi)) sched
      with
      | Ok () -> (sched, true)
      | Error _ ->
          Metrics.incr c_cache_invalid;
          Plan_cache.remove t.cache key;
          compute ())

(* Both readers of a [route] line end here, so a line gets the same
   reply whichever read it: the grid's size against the permutation's
   length [n], then the permutation, the engine and the configuration,
   each with the message and in the order the tree path has always
   used.  [pi], [engine] and [config] arrive as results, so an error in
   reading one is reported at its step. *)
let route_checked t cancel ~rows ~cols ~n ~pi ~engine ~config =
  let* grid = grid_of_dims t ~vertices:n rows cols in
  let* pi = Result.bind pi P.perm_of_ints in
  let* engine = engine in
  let* config = config in
  Cancel.check cancel;
  let sched, cached = routed t grid pi engine config in
  t.last_cached <- Some cached;
  Cancel.check cancel;
  Ok
    (fun buf ->
      Buffer.add_string buf {|{"engine":|};
      Json.to_buffer buf (Json.String engine.Router_intf.name);
      Buffer.add_string buf
        (if cached then {|,"cached":true,"schedule":|}
         else {|,"cached":false,"schedule":|});
      Schedule.to_buffer buf sched;
      Buffer.add_char buf '}')

let do_route t cancel params =
  let* perm =
    match Json.member "perm" params with
    | None -> Error "missing perm"
    | Some j -> Ok j
  in
  let* n = perm_length perm in
  let* rows, cols = grid_fields params in
  route_checked t cancel ~rows ~cols ~n ~pi:(P.perm_entries_of_json perm)
    ~engine:(parse_engine params) ~config:(parse_config params)

let do_route_line t cancel (r : P.route_line) =
  route_checked t cancel ~rows:r.rows ~cols:r.cols ~n:(Array.length r.perm)
    ~pi:(Ok r.perm) ~engine:(engine_named r.engine)
    ~config:(Ok Router_config.default)

let do_route_batch t cancel params =
  let* perm_jsons =
    match Json.member "perms" params with
    | Some (Json.List []) -> Error "perms: expected at least one permutation"
    | Some (Json.List items) -> Ok items
    | Some _ -> Error "perms: expected a list of permutations"
    | None -> Error "missing perms"
  in
  (* The first perm sizes the grid; [perm_of_json] checks the rest. *)
  let* vertices = perm_length (List.hd perm_jsons) in
  let* grid = parse_grid t ~vertices params in
  let* engine = parse_engine params in
  let* config = parse_config params in
  let n = Grid.size grid in
  let* perms =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* pi = P.perm_of_json ~expect_size:n j in
        Ok (pi :: acc))
      (Ok []) perm_jsons
    |> Result.map List.rev
  in
  let batch = List.length perms in
  if batch > t.config.max_batch then
    raise
      (Overloaded_batch
         (Printf.sprintf "batch of %d exceeds max_batch %d" batch
            t.config.max_batch));
  (* Memory brownout: keep answering single routes, but batch fan-out is
     the first work to go when the process is over its RSS budget. *)
  if Supervisor.brownout_active () then
    raise
      (Overloaded_batch "memory brownout: batch requests temporarily rejected");
  (* The deadline is checked per item: finished items are returned, and
     unfinished ones get per-item deadline_exceeded errors — not one
     all-or-nothing failure for work already done. *)
  let item pi =
    match
      Cancel.check cancel;
      routed t grid pi engine config
    with
    | result -> Ok result
    | exception Cancel.Cancelled Cancel.Deadline ->
        Error (P.error P.Deadline_exceeded "request deadline exceeded")
  in
  let results =
    match t.pool with
    | Some pool when batch > 1 ->
        (* Fan the items across the worker pool.  Each item closure
           enters this request's scope on whichever domain runs it, so
           the routing loops poll the request's token and the whole
           batch's spans stay stamped; other exceptions propagate out of
           [map_tasks] exactly as they would from the serial loop. *)
        let trace_id = Trace.trace_id () in
        Worker_pool.map_tasks pool
          (fun pi -> in_scope ~cancel ~trace_id (fun () -> item pi))
          perms
    | _ -> List.map item perms
  in
  let completed =
    List.fold_left
      (fun n -> function Ok _ -> n + 1 | Error _ -> n)
      0 results
  in
  (* Rendered later, by [handle_line_status] on the session's own
     domain, after every item is back. *)
  let items buf write =
    List.iteri
      (fun k item ->
        if k > 0 then Buffer.add_char buf ',';
        write item)
      results
  in
  Ok
    (fun buf ->
      Buffer.add_string buf {|{"engine":|};
      Json.to_buffer buf (Json.String engine.Router_intf.name);
      Buffer.add_string buf {|,"schedules":[|};
      items buf (function
        | Ok (s, _) -> Schedule.to_buffer buf s
        | Error err ->
            Json.to_buffer buf (Json.Obj [ ("error", P.error_to_json err) ]));
      Buffer.add_string buf {|],"cached":[|};
      items buf (function
        | Ok (_, c) -> Buffer.add_string buf (if c then "true" else "false")
        | Error _ -> Buffer.add_string buf "null");
      Buffer.add_string buf {|],"completed":|};
      Json.int_to_buffer buf completed;
      Buffer.add_char buf '}')

let do_transpile t cancel params =
  let* logical =
    match Json.member "circuit" params with
    | Some (Json.String text) -> Qasm.parse text
    | Some _ -> Error "circuit: expected the circuit text as a string"
    | None -> Error "missing circuit"
  in
  let* grid = parse_grid t ~vertices:(Circuit.num_qubits logical) params in
  let* engine = parse_engine params in
  let* config = parse_config params in
  Cancel.check cancel;
  let result =
    Transpile.run_grid ~engine:(effective_engine t engine) ~config grid logical
  in
  Cancel.check cancel;
  Ok
    (Json.Obj
       [
         ("engine", Json.String engine.Router_intf.name);
         ("physical", Json.String (Qasm.print result.Transpile.physical));
         ("physical_depth", Json.Int (Circuit.depth result.Transpile.physical));
         ("physical_size", Json.Int (Circuit.size result.Transpile.physical));
         ("swaps", Json.Int (Circuit.swap_count result.Transpile.physical));
         ("routed_slices", Json.Int result.Transpile.routed_slices);
         ("swap_layers", Json.Int result.Transpile.swap_layers);
       ])

let cache_json t =
  Json.Obj
    [
      ("size", Json.Int (Plan_cache.length t.cache));
      ("capacity", Json.Int (Plan_cache.capacity t.cache));
      ("hits", Json.Int (Plan_cache.hits t.cache));
      ("misses", Json.Int (Plan_cache.misses t.cache));
      ("evictions", Json.Int (Plan_cache.evictions t.cache));
    ]

let health t =
  let uptime_ns = Int64.sub (Timer.now_ns ()) t.started_ns in
  let degraded = Router_registry.degradations () > 0 in
  Json.Obj
    [
      ("status", Json.String (if degraded then "degraded" else "ok"));
      ( "verify",
        Json.Obj
          [
            ("enabled", Json.Bool t.config.verify);
            ("failures", Json.Int (Router_registry.verify_failures ()));
            ("degraded", Json.Int (Router_registry.degradations ()));
          ] );
      ("faults_armed", Json.Bool (Fault.armed ()));
      ("requests", Json.Int t.served);
      ("inflight", Json.Int (t.inflight_probe ()));
      ("uptime_s", Json.Float (Int64.to_float uptime_ns /. 1e9));
      ("uptime_ms", Json.Float (Int64.to_float uptime_ns /. 1e6));
      ("engines", Json.Int (List.length (Router_registry.names ())));
      ("plan_cache", cache_json t);
    ]

(* One-call operational snapshot: health + cache + full metrics registry
   (process gauges refreshed), for [qroute stats] and dashboards that
   want a single poll. *)
let stats t =
  refresh_process_gauges ();
  Json.Obj
    [
      ("health", health t);
      ("plan_cache", cache_json t);
      ("metrics", Metrics.to_json ());
    ]

(* A method's result as a writer of its bytes: [route] and [route_batch]
   write their schedules directly, the rest render a tree built here. *)
let tree json buf = Json.to_buffer buf json

let dispatch t cancel meth params =
  match meth with
  | "route" -> do_route t cancel params
  | "route_batch" -> do_route_batch t cancel params
  | "transpile" -> Result.map tree (do_transpile t cancel params)
  | "engines" -> Ok (tree (P.engines_json ()))
  | "health" -> Ok (tree (health t))
  | "metrics" ->
      refresh_process_gauges ();
      Ok (tree (Metrics.to_json ()))
  | "stats" -> Ok (tree (stats t))
  | m ->
      raise
        (Unknown_method
           (Printf.sprintf "unknown method %S (methods: %s)" m
              (String.concat ", " P.methods)))

(* ------------------------------------------------------------- envelope *)

(* Run one request's [dispatch] and render its reply into [t.reply].
   [server_ms] stops before the reply is rendered. *)
let respond t ~id ~meth ?deadline_ms ?trace dispatch =
  t.served <- t.served + 1;
  Metrics.incr c_requests;
  let timer = Timer.start () in
  (* Cooperative cancellation: the pool's job wrapper installs an
     ambient token (the watchdog holds its other end) — reuse it so a
     supervisor kill reaches this request; off-pool, a fresh private
     token.  The token also carries the request's deadline while the
     request runs, so the phase boundaries and the routing hot loops
     check one instant. *)
  let cancel =
    let ambient = Cancel.ambient () in
    if ambient == Cancel.none then Cancel.create () else ambient
  in
  t.last_cached <- None;
  let degradations_before = Router_registry.degradations () in
  let run () =
    Trace.with_span "serve_request" ~attrs:[ ("method", Trace.String meth) ]
    @@ fun () ->
    match Fault.point "session.dispatch" ~f:(fun () -> dispatch cancel) with
    | Ok write -> Ok write
    | Error msg -> Error (P.error P.Invalid_params msg)
    | exception Cancel.Cancelled Cancel.Deadline ->
        Error (P.error P.Deadline_exceeded "request deadline exceeded")
    | exception Cancel.Cancelled Cancel.Killed ->
        Error
          (P.error P.Internal_error
             "request cancelled by the supervisor watchdog")
    | exception Unknown_method msg -> Error (P.error P.Unknown_method msg)
    | exception Overloaded_batch msg -> Error (P.error P.Overloaded msg)
    | exception Router_intf.Unsupported_input { engine; reason } ->
        Error
          (P.error P.Unsupported_input
             (Printf.sprintf "engine %s: %s" engine reason))
    | exception Router_registry.Verification_failed { engine; reason } ->
        Error
          (P.error P.Internal_error
             (Printf.sprintf
                "engine %s: no verified schedule from any fallback (%s)"
                engine reason))
    | exception Fault.Injected point ->
        Error (P.error P.Internal_error ("injected fault at " ^ point))
    | exception Invalid_argument msg -> Error (P.error P.Internal_error msg)
    | exception Failure msg -> Error (P.error P.Internal_error msg)
    (* Per-request isolation: whatever a handler raises, the connection
       gets a typed envelope and the serving loop keeps running. *)
    | exception exn ->
        Error
          (P.error P.Internal_error
             ("unexpected exception: " ^ Printexc.to_string exn))
  in
  (* Adopt the caller's trace context for the duration of the request:
     every span opened below serve_request — engine phases, cache
     lookups, the degraded_to attribute — carries the caller's trace_id
     in the exported trace. *)
  let trace_id =
    match trace with
    | None -> Trace.trace_id ()
    | Some tc -> Some tc.Trace_context.trace_id
  in
  let scoped () = in_scope ~cancel ~trace_id run in
  let result =
    match deadline_ms with
    | None -> scoped ()
    | Some ms -> Cancel.with_budget_ms cancel ms scoped
  in
  let ms = Timer.elapsed_s timer *. 1000. in
  Metrics.observe h_request_ms ms;
  let status =
    match result with Ok _ -> "ok" | Error e -> P.code_to_string e.P.code
  in
  t.last_access <-
    Some
      {
        a_meth = meth;
        a_status = status;
        a_ms = ms;
        a_trace = trace;
        a_cached = t.last_cached;
        a_degraded = Router_registry.degradations () > degradations_before;
      };
  match result with
  | Ok write -> P.ok_response_to_buffer t.reply ?trace ~server_ms:ms ~id write
  | Error err ->
      Metrics.incr c_errors;
      Json.to_buffer t.reply (P.error_response ?trace ~server_ms:ms ~id err)

(* One line of access log per request line, at Info — the per-connection
   record operators grep/parse (DESIGN.md §12).  Guarded by [would_log]
   so the default Warn level pays one comparison and no allocation. *)
let log_access t ~bytes =
  if Log.would_log Log.Info then
    match t.last_access with
    | None -> ()
    | Some a ->
        let fields =
          [
            ("session", Json.Int t.session_id);
            ("method", Json.String a.a_meth);
            ("status", Json.String a.a_status);
            ("ms", Json.Float a.a_ms);
            ("bytes", Json.Int bytes);
          ]
        in
        let fields =
          match t.worker with
          | None -> fields
          | Some w -> fields @ [ ("worker", Json.Int w) ]
        in
        let fields =
          match a.a_trace with
          | None -> fields
          | Some tc ->
              fields @ [ ("trace_id", Json.String tc.Trace_context.trace_id) ]
        in
        let fields =
          match a.a_cached with
          | None -> fields
          | Some c -> fields @ [ ("cached", Json.Bool c) ]
        in
        let fields =
          if a.a_degraded then fields @ [ ("degraded", Json.Bool true) ]
          else fields
        in
        Log.info "request" fields

let reject t ~meth err =
  Metrics.incr c_errors;
  t.last_access <-
    Some
      {
        a_meth = meth;
        a_status = P.code_to_string err.P.code;
        a_ms = 0.;
        a_trace = None;
        a_cached = None;
        a_degraded = false;
      };
  err

let handle_line_status t line =
  t.last_access <- None;
  Buffer.clear t.reply;
  (* The hot shape first; any line it refuses is read as a tree. *)
  (match P.read_route_line line with
  | Some r ->
      respond t ~id:r.route_id ~meth:"route" ?deadline_ms:r.route_deadline_ms
        ?trace:r.route_trace (fun cancel -> do_route_line t cancel r)
  | None -> (
      match Json.of_string line with
      | Error msg ->
          Json.to_buffer t.reply
            (P.error_response ~id:Json.Null
               (reject t ~meth:"?" (P.error P.Parse_error msg)))
      | Ok json -> (
          match P.request_of_json json with
          | Error err ->
              let meth =
                match Json.member "method" json with
                | Some (Json.String m) -> m
                | _ -> "?"
              in
              Json.to_buffer t.reply
                (P.error_response ~id:(P.request_id json) (reject t ~meth err))
          | Ok req ->
              respond t ~id:req.id ~meth:req.meth ?deadline_ms:req.deadline_ms
                ?trace:req.trace (fun cancel ->
                  dispatch t cancel req.meth req.params))));
  let rendered = Buffer.contents t.reply in
  if Buffer.length t.reply > reply_release_bytes then Buffer.reset t.reply;
  log_access t ~bytes:(String.length rendered);
  let errored =
    match t.last_access with
    | Some a -> a.a_status <> "ok"
    | None -> false
  in
  (rendered, errored)

let handle_line t line = fst (handle_line_status t line)

let recovered_id line =
  match Json.of_string line with
  | Ok json -> P.request_id json
  | Error _ -> Json.Null

let overloaded_response_line ?retry_after_ms line =
  Metrics.incr c_errors;
  Json.to_string
    (P.error_response ~id:(recovered_id line)
       (P.error ?retry_after_ms P.Overloaded
          "server overloaded: in-flight queue full"))

let oversized_response_line () =
  Metrics.incr c_errors;
  Json.to_string
    (P.error_response ~id:Json.Null
       (P.error P.Invalid_request
          "request line exceeds max-line-bytes; closing connection"))

let hung_response_line line =
  Metrics.incr c_errors;
  Json.to_string
    (P.error_response ~id:(recovered_id line)
       (P.error P.Internal_error
          "request cancelled by the supervisor watchdog: worker \
           unresponsive"))

let crashed_response_line line exn =
  Metrics.incr c_errors;
  Json.to_string
    (P.error_response ~id:(recovered_id line)
       (P.error P.Internal_error
          ("request handler crashed: " ^ Printexc.to_string exn)))
