(* The repository's benchmark: four closed-loop workloads over the routing
   kernel and the socket server.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --qroute EXE

   local-32x32  Algorithm 1 (engine [local], both orientations) on 32x32,
                in process, one caller, a fresh seeded permutation per call.
   ats-12x12    The comparator (engine [ats], 4 trials) on 12x12, in
                process; the local kernel does none of its work.
   serve-hot    [route] request lines on 16x16 for a server at workers 1;
                95% of the permutations come from a 64-permutation hot set
                that fits the plan cache, so the engine almost never runs.
   serve-cold   The same grid for workers = cores, every permutation
                fresh; 10% of requests are 8-permutation [route_batch]es
                fanned across the worker pool.

   The serve workloads' end-to-end run sends its lines to
   [Session.handle_line] in process; the traced run sends them to a forked
   [qroute serve --socket --workers N] over one connection per core.

   The workload seed fixes every input.  Set-up (input generation,
   warm-up, and for the serve workloads the server spawn) runs
   [setup_reps] times and its median is [setup_s]; the repetitions must
   agree on every schedule's depth and size, which is the determinism
   self-check.  [mean_depth]/[mean_swaps] are taken over the first
   [quality_ops] operations of the timed loop, so they depend on the seed
   only.  Every operation's schedule is checked against its permutation
   outside the timed interval; an invalid schedule makes the run exit
   nonzero.  Timings are reported at a reference host speed (see
   [calibrate]).

   With [--trace 0] the last stdout line carries the end-to-end metrics.
   With [--trace 1] half the run is untraced and half traced (the
   difference is the tracing overhead), and the per-layer metrics come
   from spans recorded around the public calls each layer exposes: the
   in-process runs rebuild Algorithm 1 (or ATS) from those calls and
   assert that the result equals [Router_intf.route_grid]'s; the serve runs
   replay their request lines through the public pipeline calls and assert
   that the response equals [Session.handle_line]'s. *)

module Json = Qr_obs.Json
module Timer = Qr_util.Timer
module Rng = Qr_util.Rng
module Stats = Qr_util.Stats
module Resource = Qr_util.Resource
module Grid = Qr_graph.Grid
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Grid_perm = Qr_perm.Grid_perm
module Generators = Qr_perm.Generators
module Schedule = Qr_route.Schedule
module Column_graph = Qr_route.Column_graph
module Grid_route = Qr_route.Grid_route
module Local_grid_route = Qr_route.Local_grid_route
module Router_intf = Qr_route.Router_intf
module Router_config = Qr_route.Router_config
module Router_registry = Qr_route.Router_registry
module Router_workspace = Qr_route.Router_workspace
module Parallel_ats = Qr_token.Parallel_ats
module P = Qr_server.Protocol
module Session = Qr_server.Session
module Plan_cache = Qr_server.Plan_cache
module Worker_pool = Qr_server.Worker_pool

let span = Spans.with_span
let run_dir = ".perfbench"
let setup_reps = 5
let cores = Domain.recommended_domain_count ()

(* ----------------------------------------------------------- reporting *)

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt
let attempted = ref 0
let failed = ref 0

let ms_of_ns ns = float_of_int ns /. 1e6
let per a b = if b = 0. then 0. else a /. b
let median xs = if xs = [] then 0. else Stats.median (Array.of_list xs)

(* The highest percentile reported is p99, and only with at least ten
   samples beyond it. *)
let p99 xs =
  if List.length xs >= 1000 then Some (Stats.percentile (Array.of_list xs) 99.)
  else None

(* Host-speed calibration.  The cores of the host this benchmark was
   written on change speed by up to 1.5x over seconds to minutes, as other
   tenants come and go.  Each run therefore times a fixed kernel that uses
   no repository code, between operations and with nothing in flight, and
   reports every timing at a reference host speed: a time t is reported as
   t * cal_ref_ms / (median kernel time of the run), a rate inversely.  The
   raw figures and the kernel time are printed on the host line. *)
let cal_ref_ms = 3.0
let cal_buf = Array.make 8192 0
let cal_samples = ref []

let calibrate () =
  let t0 = Spans.now_ns () in
  let x = ref 0x2545F4914F6CDD1D in
  for i = 0 to Array.length cal_buf - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    cal_buf.(i) <- !x land 0xfffff
  done;
  Array.sort (fun (a : int) b -> compare a b) cal_buf;
  cal_samples := ms_of_ns (Spans.now_ns () - t0) :: !cal_samples

(* Factor from raw to reference times (1 when no sample was taken). *)
let time_factor () =
  match !cal_samples with [] -> 1. | xs -> cal_ref_ms /. median xs

let at_reference_speed (name, value, unit) =
  let f = time_factor () in
  match unit with
  | "ms" | "s" -> (name, value *. f, unit)
  | "1/s" -> (name, value /. f, unit)
  | _ -> (name, value, unit)

(* The schedules whose depth and size give mean_depth and mean_swaps: the
   first operations of the timed loop, a fixed set for a given seed. *)
let quality_ops = 1000

let print_result ~correct metrics =
  let metrics =
    List.map
      (fun (name, value, unit) ->
        (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))

(* --------------------------------------------------------------- inputs *)

(* Permutations cycling through the paper's four kinds, drawn from one
   generator seeded by the workload seed. *)
let perm_stream grid seed =
  let rng = Rng.create seed in
  let kinds = Array.of_list (Generators.paper_kinds grid) in
  let i = ref 0 in
  fun () ->
    let kind = kinds.(!i mod Array.length kinds) in
    incr i;
    Generators.generate grid kind rng

(* Set-up runs [setup_reps] times.  Each run returns the state the timed
   loop continues from (kept from the last run only) and its fingerprint,
   the depth and size of every schedule it produced, which must not
   change. *)
let repeat_setup f =
  let runs =
    List.init setup_reps (fun rep ->
        calibrate ();
        let t = Timer.start () in
        let state, fingerprint = f ~last:(rep = setup_reps - 1) in
        (Timer.elapsed_s t, state, fingerprint))
  in
  let fingerprints = List.map (fun (_, _, fp) -> fp) runs in
  if List.exists (( <> ) (List.hd fingerprints)) fingerprints then
    fatal "determinism: set-up repetitions disagree";
  let setup_s = median (List.map (fun (s, _, _) -> s) runs) in
  match List.rev runs with
  | (_, Some state, _) :: _ -> (setup_s, state)
  | _ -> assert false

let mean_of f xs = per (List.fold_left (fun a x -> a +. f x) 0. xs) (float_of_int (List.length xs))

(* ------------------------------------------------------ in-process runs *)

(* [rounds] is computed on demand, outside the timed operation. *)
type rebuilt = { sched : Schedule.t; rounds : unit -> int * int * int }

(* Algorithm 1 rebuilt from the public calls [route_grid] makes, one span
   per layer; span names follow the program's own. *)
let local_orientation grid pi =
  let cg = span "column_graph_build" (fun () -> Column_graph.build grid pi) in
  let matchings =
    span "band_search" (fun () ->
        Local_grid_route.discover_matchings Local_grid_route.Doubling cg)
  in
  let assigned_rows =
    span "mcbbm_assign" (fun () ->
        Local_grid_route.assign_rows Local_grid_route.Mcbbm cg matchings)
  in
  let sigmas =
    span "sigmas" (fun () ->
        Grid_route.sigmas_of_assignment cg ~matchings ~assigned_rows)
  in
  let sched =
    span "gridroute_rounds" (fun () -> Grid_route.route_with_sigmas grid pi sigmas)
  in
  (sigmas, sched)

let rebuild_local grid pi =
  let sigmas_d, direct =
    span "orientation_direct" (fun () -> local_orientation grid pi)
  in
  let grid_t, pi_t, sigmas_t, lifted =
    span "orientation_transposed" (fun () ->
        let grid_t = Grid.transpose grid in
        let pi_t = Grid_perm.transpose grid pi in
        let sigmas_t, sched = local_orientation grid_t pi_t in
        ( grid_t,
          pi_t,
          sigmas_t,
          Schedule.map_vertices (Grid_perm.untranspose_vertex grid) sched ))
  in
  if Schedule.depth lifted < Schedule.depth direct then
    { sched = lifted; rounds = (fun () -> Grid_route.round_depths grid_t pi_t sigmas_t) }
  else { sched = direct; rounds = (fun () -> Grid_route.round_depths grid pi sigmas_d) }

let rebuild_ats grid pi =
  let config = Router_config.default in
  let dist = span "distance_oracle" (fun () -> Distance.of_grid grid) in
  let sched =
    span "parallel_ats" (fun () ->
        Parallel_ats.route ~trials:config.Router_config.ats_trials
          ~seed:config.Router_config.seed (Grid.graph grid) dist pi)
  in
  { sched; rounds = (fun () -> (0, 0, 0)) }

type inproc = {
  grid : Grid.t;
  engine : Router_intf.t;
  setup_inputs : int;  (* routed by each set-up and each determinism pass *)
  rebuild : Grid.t -> Perm.t -> rebuilt;
}

let check_schedule grid sched pi =
  if not (Schedule.realizes ~n:(Grid.size grid) sched pi) then begin
    incr failed;
    fatal "a schedule does not realize its permutation"
  end

(* Route one input with route_grid, counting the minor words it allocates. *)
let route_counted w pi =
  let w0 = Gc.minor_words () in
  let sched = Router_intf.route_grid w.engine w.grid pi in
  (sched, Gc.minor_words () -. w0)

let inproc_setup w seed ~last =
  let next = perm_stream w.grid seed in
  let fingerprint =
    List.init w.setup_inputs (fun _ ->
        let pi = next () in
        let sched, _ = route_counted w pi in
        check_schedule w.grid sched pi;
        (Schedule.depth sched, Schedule.size sched))
  in
  ((if last then Some next else None), fingerprint)

(* Closed loop of plain route_grid calls until [until_ns], and on until
   [min_ops] calls are done.  Returns per-call latencies (ms) and the depth
   and size of the first [quality_ops] schedules.  The host is calibrated
   every few calls, between calls. *)
let inproc_loop ?(min_ops = 0) w next ~until_ns =
  let lat = ref [] and ops = ref 0 and quality = ref [] in
  while Spans.now_ns () < until_ns || !ops < min_ops do
    if !ops mod 8 = 0 then calibrate ();
    incr ops;
    let pi = next () in
    let t0 = Spans.now_ns () in
    let sched = Router_intf.route_grid w.engine w.grid pi in
    lat := ms_of_ns (Spans.now_ns () - t0) :: !lat;
    incr attempted;
    check_schedule w.grid sched pi;
    if !ops <= quality_ops then
      quality := (Schedule.depth sched, Schedule.size sched) :: !quality
  done;
  (!lat, !quality)

let throughput lat_ms = per (float_of_int (List.length lat_ms)) (List.fold_left ( +. ) 0. lat_ms /. 1e3)

let quality_metrics quality =
  [
    ("mean_depth", mean_of (fun (d, _) -> float_of_int d) quality, "layers");
    ("mean_swaps", mean_of (fun (_, s) -> float_of_int s) quality, "swaps");
  ]

let inproc_end_to_end w ~seed ~seconds =
  let setup_s, next = repeat_setup (inproc_setup w seed) in
  (* At least enough calls for a p99 with ten samples beyond it: the slow
     ats-12x12 needs a little longer than the run length for that. *)
  let lat, quality =
    inproc_loop ~min_ops:quality_ops w next
      ~until_ns:(Spans.now_ns () + int_of_float (seconds *. 1e9))
  in
  let rss_mb = float_of_int (Resource.max_rss_kb ()) /. 1024. in
  [
    ("throughput_ops_s", throughput lat, "1/s");
    ("latency_p50_ms", median lat, "ms");
  ]
  @ (match p99 lat with Some v -> [ ("latency_p99_ms", v, "ms") ] | None -> [])
  @ quality_metrics quality
  @ [ ("setup_s", setup_s, "s"); ("peak_rss_mb", rss_mb, "MB") ]

(* ------------------------------------------------------- per-layer names *)

(* Every per-layer metric, in BENCHMARK.json's order; a layer a workload
   does not run reports 0. *)
let layer_units =
  [
    ("engine.route_ms", "ms"); ("engine.minor_words", "words");
    ("engine.minor_gcs_per_op", "count");
    ("local.column_graph_build_ms", "ms"); ("local.column_graph_minor_words", "words");
    ("local.band_search_ms", "ms"); ("local.band_search_minor_words", "words");
    ("local.mcbbm_assign_ms", "ms"); ("local.sigmas_ms", "ms");
    ("local.gridroute_rounds_ms", "ms"); ("local.gridroute_rounds_minor_words", "words");
    ("local.round1_depth", "layers"); ("local.round2_depth", "layers");
    ("local.round3_depth", "layers"); ("local.orientation_ms", "ms");
    ("verify.realizes_ms", "ms");
    ("ats.distance_oracle_ms", "ms"); ("ats.parallel_ats_ms", "ms");
    ("ats.minor_words", "words");
    ("protocol.parse_ms", "ms");
    ("plan_cache.key_ms", "ms"); ("plan_cache.find_ms", "ms"); ("plan_cache.add_ms", "ms");
    ("plan_cache.hit_ratio", "share"); ("plan_cache.evictions_per_req", "count");
    ("serialize.ms", "ms"); ("response.bytes", "bytes");
    ("session.handle_line_ms", "ms"); ("session.other_ms", "ms");
    ("pool.batch_ms", "ms"); ("pool.batch_speedup", "x");
    ("server.server_ms_p50", "ms"); ("server.server_ms_p99", "ms");
    ("server.outside_ms_p50", "ms"); ("server.outside_ms_p99", "ms");
    ("server.loop_wakeups_per_req", "count");
    ("client.encode_ms", "ms"); ("client.decode_ms", "ms");
    ("route.latency_p50_ms", "ms"); ("route_batch.latency_p50_ms", "ms");
    ("trace.untraced_throughput_ops_s", "1/s"); ("trace.traced_throughput_ops_s", "1/s");
    ("trace.overhead_share", "share");
  ]

let layer_metrics values =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name values), unit))
    layer_units

(* Means over [ops] operations of a span name's total time, self time and
   self minor words. *)
type means = {
  total_ms : string -> float;
  self_ms : string -> float;
  self_words : string -> float;
}

let span_means ops =
  let table = Spans.totals () in
  let n = float_of_int ops in
  let field f name =
    match Hashtbl.find_opt table name with Some t -> per (f t) n | None -> 0.
  in
  {
    total_ms = field (fun t -> ms_of_ns t.Spans.total_ns);
    self_ms = field (fun t -> ms_of_ns t.Spans.self_ns);
    self_words = field (fun t -> t.Spans.self_words);
  }

let overhead untraced traced =
  [
    ("trace.untraced_throughput_ops_s", untraced);
    ("trace.traced_throughput_ops_s", traced);
    ("trace.overhead_share", per (untraced -. traced) untraced);
  ]

let inproc_traced w ~seed ~seconds =
  let _, next = repeat_setup (inproc_setup w seed) in
  let half = int_of_float (seconds *. 0.5e9) in
  let untraced =
    throughput (fst (inproc_loop w next ~until_ns:(Spans.now_ns () + half)))
  in
  Spans.enabled := true;
  let until_ns = Spans.now_ns () + half in
  let ops = ref 0 and op_ns = ref 0 and minor_gcs = ref 0 in
  while Spans.now_ns () < until_ns do
    if !ops mod 8 = 0 then calibrate ();
    let pi = next () in
    incr ops;
    incr attempted;
    Spans.current_op := !ops;
    let t0 = Spans.now_ns () in
    let r = span "op" (fun () -> w.rebuild w.grid pi) in
    op_ns := !op_ns + Spans.now_ns () - t0;
    let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
    let reference =
      span "route" (fun () -> Router_intf.route_grid w.engine w.grid pi)
    in
    minor_gcs := !minor_gcs + (Gc.quick_stat ()).Gc.minor_collections - gcs0;
    if r.sched <> reference then fatal "rebuilt pipeline differs from route_grid";
    span "realizes" (fun () -> check_schedule w.grid reference pi)
  done;
  Spans.enabled := false;
  let traced = per (float_of_int !ops) (float_of_int !op_ns /. 1e9) in
  (* The deterministic counts come from the set-up's fixed inputs, routed
     twice: they must repeat exactly. *)
  let determinism_pass () =
    let next = perm_stream w.grid seed in
    List.init w.setup_inputs (fun _ ->
        let pi = next () in
        let r = w.rebuild w.grid pi in
        let sched, words = route_counted w pi in
        if r.sched <> sched then fatal "rebuilt pipeline differs from route_grid";
        (r.rounds (), words))
  in
  let pass = determinism_pass () in
  if determinism_pass () <> pass then
    fatal "determinism: round depths or engine minor words changed between passes";
  let { total_ms; self_ms; self_words } = span_means !ops in
  let round k =
    mean_of (fun ((a, b, c), _) -> float_of_int (match k with 1 -> a | 2 -> b | _ -> c)) pass
  in
  let values =
    [
      ("engine.route_ms", total_ms "route");
      ("engine.minor_words", mean_of snd pass);
      ("engine.minor_gcs_per_op", per (float_of_int !minor_gcs) (float_of_int !ops));
      ("local.column_graph_build_ms", self_ms "column_graph_build");
      ("local.column_graph_minor_words", self_words "column_graph_build");
      ("local.band_search_ms", self_ms "band_search");
      ("local.band_search_minor_words", self_words "band_search");
      ("local.mcbbm_assign_ms", self_ms "mcbbm_assign");
      ("local.sigmas_ms", self_ms "sigmas");
      ("local.gridroute_rounds_ms", self_ms "gridroute_rounds");
      ("local.gridroute_rounds_minor_words", self_words "gridroute_rounds");
      ("local.round1_depth", round 1);
      ("local.round2_depth", round 2);
      ("local.round3_depth", round 3);
      ( "local.orientation_ms",
        self_ms "orientation_direct" +. self_ms "orientation_transposed" );
      ("verify.realizes_ms", total_ms "realizes");
      ("ats.distance_oracle_ms", self_ms "distance_oracle");
      ("ats.parallel_ats_ms", self_ms "parallel_ats");
      ("ats.minor_words", self_words "parallel_ats");
    ]
    @ overhead untraced traced
  in
  layer_metrics values

(* ------------------------------------------------------------ serve runs *)

let serve_grid = Grid.make ~rows:16 ~cols:16

(* A serve operation: a route (one permutation) or a route_batch. *)
type op = { id : int; batch : bool; perms : Perm.t list }

type source = { warmup : (bool * Perm.t list) list; next : unit -> bool * Perm.t list }

(* 95% of requests name one of 64 hot permutations, which fit the default
   128-entry plan cache; the rest are fresh. *)
let hot_source seed =
  let fresh = perm_stream serve_grid seed in
  let hot = Array.init 64 (fun _ -> fresh ()) in
  let rng = Rng.create (seed lxor 0x5eed) in
  {
    warmup = List.map (fun pi -> (false, [ pi ])) (Array.to_list hot);
    next =
      (fun () ->
        if Rng.float rng 1.0 < 0.95 then (false, [ Rng.choose rng hot ])
        else (false, [ fresh () ]));
  }

(* Every permutation fresh; 10% of requests batch 8 of them. *)
let cold_source seed =
  let fresh = perm_stream serve_grid seed in
  let rng = Rng.create (seed lxor 0x5eed) in
  let next () =
    if Rng.float rng 1.0 < 0.9 then (false, [ fresh () ])
    else (true, List.init 8 (fun _ -> fresh ()))
  in
  let warmup = List.init 48 (fun _ -> next ()) in
  { warmup; next }

let next_id = ref 0

let encode (batch, perms) =
  incr next_id;
  let perms_field =
    if batch then ("perms", Json.List (List.map P.perm_to_json perms))
    else ("perm", P.perm_to_json (List.hd perms))
  in
  let request =
    P.request ~id:(Json.Int !next_id)
      ~meth:(if batch then "route_batch" else "route")
      (Json.Obj [ ("grid", P.grid_to_json serve_grid); perms_field ])
  in
  ({ id = !next_id; batch; perms }, Json.to_string (P.request_to_json request))

(* Decode a response envelope into its schedules, one per permutation. *)
let decode op line =
  let ( let* ) = Result.bind in
  let* json = Json.of_string line in
  let* result =
    Result.map_error
      (fun e -> P.code_to_string e.P.code ^ ": " ^ e.P.message)
      (P.response_result json)
  in
  let* items =
    match
      Json.member (if op.batch then "schedules" else "schedule") result
    with
    | Some (Json.List items) when op.batch -> Ok items
    | Some item when not op.batch -> Ok [ item ]
    | _ -> Error "response carries no schedule"
  in
  if List.length items <> List.length op.perms then Error "schedule count"
  else
    let* scheds =
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* s = Schedule.of_json item in
          Ok (s :: acc))
        items (Ok [])
    in
    Ok (json, scheds)

type serve_state = {
  server : Wire.server;
  conns : Wire.conn array;
  source : source;
  warm_lines : string list;
}

let stop_serving st =
  Array.iter Wire.close_conn st.conns;
  Wire.stop st.server

let serve_setup ~qroute ~name ~workers source_of seed ~last =
  let path = Printf.sprintf "%s/%d.sock" run_dir (Unix.getpid ()) in
  let log = Printf.sprintf "%s/serve-%s.log" run_dir name in
  let server = Wire.spawn ~qroute ~workers ~path ~log in
  let source = source_of seed in
  let conns = Array.init cores (fun _ -> Wire.open_conn path) in
  let warm =
    List.map
      (fun request ->
        let op, line = encode request in
        let reply = Wire.rpc conns.(0) line in
        match decode op reply with
        | Error msg -> fatal "warm-up request failed: %s" msg
        | Ok (_, scheds) ->
            List.iter2 (check_schedule serve_grid) scheds op.perms;
            (line, List.map (fun s -> (Schedule.depth s, Schedule.size s)) scheds))
      source.warmup
  in
  let st = { server; conns; source; warm_lines = List.map fst warm } in
  let fingerprint = List.concat_map snd warm in
  if last then (Some st, fingerprint)
  else begin
    stop_serving st;
    (None, fingerprint)
  end

(* What one closed-loop segment over the wire observed. *)
type segment = {
  ops : int;
  wall_s : float;
  lat : float list;
  route_lat : float list;
  batch_lat : float list;
  server_ms : float list;
  outside_ms : float list;
  bytes : int;
  lines : string list;  (* request lines kept for the replay *)
  before : Wire.stats;
  after : Wire.stats;
}

let serve_segment st ~seconds ~keep_lines =
  let before = Wire.stats st.conns.(0) in
  let ops = ref 0 and bytes = ref 0 and kept = ref [] and n_kept = ref 0 in
  let lat = ref [] and route_lat = ref [] and batch_lat = ref [] in
  let server_ms = ref [] and outside_ms = ref [] in
  let next () =
    let request = st.source.next () in
    Spans.current_op := !next_id + 1;
    let op, line = span "client.encode" (fun () -> encode request) in
    if !n_kept < keep_lines then begin
      kept := line :: !kept;
      incr n_kept
    end;
    (op, line)
  in
  let on_done op line ~sent_ns ~recv_ns =
    incr ops;
    incr attempted;
    Spans.current_op := op.id;
    Spans.record "wire" ~start_ns:sent_ns ~stop_ns:recv_ns ~words:0.;
    let ms = ms_of_ns (recv_ns - sent_ns) in
    lat := ms :: !lat;
    if op.batch then batch_lat := ms :: !batch_lat else route_lat := ms :: !route_lat;
    bytes := !bytes + String.length line;
    match span "client.decode" (fun () -> decode op line) with
    | Error _ -> incr failed
    | Ok (json, scheds) ->
        span "realizes" (fun () ->
            List.iter2 (check_schedule serve_grid) scheds op.perms);
        Option.iter
          (fun s ->
            server_ms := s :: !server_ms;
            outside_ms := (ms -. s) :: !outside_ms)
          (P.response_server_ms json)
  in
  let start = Spans.now_ns () in
  let paused_ns =
    Wire.closed_loop st.conns
      ~until_ns:(start + int_of_float (seconds *. 1e9))
      ~pause_every_ns:500_000_000 ~on_pause:calibrate ~next ~on_done
  in
  let wall_s = float_of_int (Spans.now_ns () - start - paused_ns) /. 1e9 in
  let after = Wire.stats st.conns.(0) in
  {
    ops = !ops;
    wall_s;
    lat = !lat;
    route_lat = !route_lat;
    batch_lat = !batch_lat;
    server_ms = !server_ms;
    outside_ms = !outside_ms;
    bytes = !bytes;
    lines = List.rev !kept;
    before;
    after;
  }

let seg_throughput seg = per (float_of_int seg.ops) seg.wall_s

(* The end-to-end serve runs drive the request pipeline in process: one
   caller sends the same request lines the socket runs send through
   [Session.handle_line], whose worker pool ([workers] > 1) the batches fan
   out over.  Over the socket, the cost of waking the server and client
   processes swung throughput by up to 2x between runs on the host this
   benchmark was written on, and the calibration cannot remove that; the
   socket path is measured by the traced run. *)
let session_setup ~workers source_of seed ~last =
  let pool = if workers > 1 then Some (Worker_pool.create ~workers ()) else None in
  let session = Session.create ?pool () in
  let source = source_of seed in
  let fingerprint =
    List.concat_map
      (fun request ->
        let op, line = encode request in
        match decode op (Session.handle_line session line) with
        | Error msg -> fatal "warm-up request failed: %s" msg
        | Ok (_, scheds) ->
            List.iter2 (check_schedule serve_grid) scheds op.perms;
            List.map (fun s -> (Schedule.depth s, Schedule.size s)) scheds)
      source.warmup
  in
  if last then (Some (session, source, pool), fingerprint)
  else begin
    Option.iter Worker_pool.shutdown pool;
    (None, fingerprint)
  end

let serve_end_to_end ~workers source_of ~seed ~seconds =
  let setup_s, (session, source, pool) =
    repeat_setup (session_setup ~workers source_of seed)
  in
  let until_ns = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let lat = ref [] and ops = ref 0 and quality = ref [] and next_cal = ref 0 in
  Fun.protect
    ~finally:(fun () -> Option.iter Worker_pool.shutdown pool)
    (fun () ->
      while Spans.now_ns () < until_ns || !ops < quality_ops do
        if Spans.now_ns () >= !next_cal then begin
          calibrate ();
          next_cal := Spans.now_ns () + 100_000_000
        end;
        incr ops;
        incr attempted;
        let op, line = encode (source.next ()) in
        let t0 = Spans.now_ns () in
        let reply = Session.handle_line session line in
        lat := ms_of_ns (Spans.now_ns () - t0) :: !lat;
        match decode op reply with
        | Error _ -> incr failed
        | Ok (_, scheds) ->
            List.iter2 (check_schedule serve_grid) scheds op.perms;
            if !ops <= quality_ops then
              List.iter
                (fun s -> quality := (Schedule.depth s, Schedule.size s) :: !quality)
                scheds
      done);
  let rss_mb = float_of_int (Resource.max_rss_kb ()) /. 1024. in
  [
    ("throughput_ops_s", throughput !lat, "1/s");
    ("latency_p50_ms", median !lat, "ms");
  ]
  @ (match p99 !lat with Some v -> [ ("latency_p99_ms", v, "ms") ] | None -> [])
  @ quality_metrics !quality
  @ [ ("setup_s", setup_s, "s"); ("peak_rss_mb", rss_mb, "MB") ]

(* The server-side pipeline rebuilt from its public calls: parse, plan
   cache key/find, engine, cache add, serialize.  Batch items fan out over
   [pool]; their timings are taken on the worker domain and recorded as
   spans afterwards. *)
let replay_item ?ws ~cache grid pi =
  let config = Router_config.default in
  let best = Router_registry.get "best" in
  let t0 = Spans.now_ns () in
  let key = Plan_cache.key ~grid ~pi ~engine:"best" ~config in
  let t1 = Spans.now_ns () in
  let found = Plan_cache.find cache key in
  let t2 = Spans.now_ns () in
  let stamps = [ ("plan_cache.key", t0, t1, 0.); ("plan_cache.find", t1, t2, 0.) ] in
  match found with
  | Some sched -> (sched, true, stamps)
  | None ->
      let w0 = Gc.minor_words () in
      let sched =
        Router_intf.route ?ws ~config best (Router_intf.Grid_input (grid, pi))
      in
      let words = Gc.minor_words () -. w0 in
      let t3 = Spans.now_ns () in
      Plan_cache.add cache key sched;
      let t4 = Spans.now_ns () in
      ( sched,
        false,
        stamps @ [ ("route", t2, t3, words); ("plan_cache.add", t3, t4, 0.) ] )

let record_stamps =
  List.iter (fun (name, start_ns, stop_ns, words) ->
      Spans.record name ~start_ns ~stop_ns ~words)

let replay_line ~ws ~cache ~pool line =
  let req, grid, perms =
    span "protocol.parse" (fun () ->
        let ( let* ) = Result.bind in
        let parsed =
          let* json = Json.of_string line in
          let* req =
            Result.map_error (fun e -> e.P.message) (P.request_of_json json)
          in
          let* grid =
            match Json.member "grid" req.P.params with
            | Some g -> P.grid_of_json g
            | None -> Error "missing grid"
          in
          let n = Grid.size grid in
          let* perms =
            match (req.P.meth, Json.member "perm" req.P.params, Json.member "perms" req.P.params) with
            | "route", Some p, _ -> Result.map (fun pi -> [ pi ]) (P.perm_of_json ~expect_size:n p)
            | "route_batch", _, Some (Json.List ps) ->
                List.fold_right
                  (fun p acc ->
                    let* acc = acc in
                    let* pi = P.perm_of_json ~expect_size:n p in
                    Ok (pi :: acc))
                  ps (Ok [])
            | _ -> Error "not a route or route_batch request"
          in
          Ok (req, grid, perms)
        in
        match parsed with Ok v -> v | Error msg -> fatal "replay: %s" msg)
  in
  let results =
    if req.P.meth = "route" then begin
      let sched, cached, stamps = replay_item ~ws ~cache grid (List.hd perms) in
      record_stamps stamps;
      [ (sched, cached) ]
    end
    else
      span "pool.batch" (fun () ->
          let items =
            Worker_pool.map_tasks (Lazy.force pool)
              (fun pi ->
                let t0 = Spans.now_ns () in
                let sched, cached, stamps = replay_item ~cache grid pi in
                (sched, cached, ("batch_item", t0, Spans.now_ns (), 0.) :: stamps))
              perms
          in
          List.map
            (fun (sched, cached, stamps) ->
              record_stamps stamps;
              (sched, cached))
            items)
  in
  span "serialize" (fun () ->
      let engine = ("engine", Json.String "best") in
      let result =
        if req.P.meth = "route" then
          let sched, cached = List.hd results in
          Json.Obj
            [ engine; ("cached", Json.Bool cached); ("schedule", Schedule.to_json sched) ]
        else
          Json.Obj
            [
              engine;
              ("schedules", Json.List (List.map (fun (s, _) -> Schedule.to_json s) results));
              ("cached", Json.List (List.map (fun (_, c) -> Json.Bool c) results));
              ("completed", Json.Int (List.length results));
            ]
      in
      Json.to_string (P.ok_response ~id:req.P.id result))

(* A response with its per-call fields ([server_ms], [trace]) removed. *)
let comparable line =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      Json.Obj (List.filter (fun (k, _) -> k <> "server_ms" && k <> "trace") fields)
  | _ -> fatal "replay: unparsable response"

let replay lines =
  let session = Session.create () in
  let cache = Plan_cache.create () in
  let ws = Router_workspace.create () in
  let pool = lazy (Worker_pool.create ~workers:cores ()) in
  let minor_gcs = ref 0 in
  Fun.protect
    ~finally:(fun () -> if Lazy.is_val pool then Worker_pool.shutdown (Lazy.force pool))
    (fun () ->
      List.iteri
        (fun i line ->
          Spans.current_op := -(i + 1);
          let reference = span "handle_line" (fun () -> Session.handle_line session line) in
          let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
          let rebuilt = span "rebuilt" (fun () -> replay_line ~ws ~cache ~pool line) in
          minor_gcs := !minor_gcs + (Gc.quick_stat ()).Gc.minor_collections - gcs0;
          if not (Json.equal (comparable reference) (comparable rebuilt)) then
            fatal "replay: rebuilt response differs from Session.handle_line")
        lines);
  !minor_gcs

(* Request lines of the traced segment replayed in process, after the
   warm-up lines; capped so the replay stays short on serve-cold. *)
let replay_cap = 300

let serve_traced ~qroute ~name ~workers source_of ~seed ~seconds =
  let _, st = repeat_setup (serve_setup ~qroute ~name ~workers source_of seed) in
  let untraced = serve_segment st ~seconds:(seconds /. 2.) ~keep_lines:0 in
  Spans.enabled := true;
  let seg = serve_segment st ~seconds:(seconds /. 2.) ~keep_lines:replay_cap in
  stop_serving st;
  let lines = st.warm_lines @ seg.lines in
  let minor_gcs = replay lines in
  Spans.enabled := false;
  let reqs = float_of_int (List.length lines) in
  let loop = span_means seg.ops and r = span_means (List.length lines) in
  let sums = span_means 1 in
  let batches =
    match Hashtbl.find_opt (Spans.totals ()) "pool.batch" with
    | Some t -> float_of_int t.Spans.n
    | None -> 0.
  in
  let delta f = float_of_int (f seg.after - f seg.before) in
  let requests = delta (fun s -> s.Wire.requests) -. 1. in
  let hits = delta (fun s -> s.Wire.hits) and misses = delta (fun s -> s.Wire.misses) in
  let pct p xs = if xs = [] then 0. else Stats.percentile (Array.of_list xs) p in
  let values =
    [
      ("engine.route_ms", r.total_ms "route");
      ("engine.minor_words", r.self_words "route");
      ("engine.minor_gcs_per_op", per (float_of_int minor_gcs) reqs);
      ("verify.realizes_ms", loop.total_ms "realizes");
      ("protocol.parse_ms", r.total_ms "protocol.parse");
      ("plan_cache.key_ms", r.total_ms "plan_cache.key");
      ("plan_cache.find_ms", r.total_ms "plan_cache.find");
      ("plan_cache.add_ms", r.total_ms "plan_cache.add");
      ("plan_cache.hit_ratio", per hits (hits +. misses));
      ("plan_cache.evictions_per_req", per (delta (fun s -> s.Wire.evictions)) requests);
      ("serialize.ms", r.total_ms "serialize");
      ("response.bytes", per (float_of_int seg.bytes) (float_of_int seg.ops));
      ("session.handle_line_ms", r.total_ms "handle_line");
      ( "session.other_ms",
        r.total_ms "handle_line" -. (r.total_ms "rebuilt" -. r.self_ms "rebuilt") );
      ("pool.batch_ms", per (sums.total_ms "pool.batch") batches);
      ("pool.batch_speedup", per (sums.total_ms "batch_item") (sums.total_ms "pool.batch"));
      ("server.server_ms_p50", pct 50. seg.server_ms);
      ("server.server_ms_p99", pct 99. seg.server_ms);
      ("server.outside_ms_p50", pct 50. seg.outside_ms);
      ("server.outside_ms_p99", pct 99. seg.outside_ms);
      ("server.loop_wakeups_per_req", per (delta (fun s -> s.Wire.wakeups)) requests);
      ("client.encode_ms", loop.total_ms "client.encode");
      ("client.decode_ms", loop.total_ms "client.decode");
      ("route.latency_p50_ms", median seg.route_lat);
      ("route_batch.latency_p50_ms", median seg.batch_lat);
    ]
    @ overhead (seg_throughput untraced) (seg_throughput seg)
  in
  layer_metrics values

(* ------------------------------------------------------------------ main *)

let usage () =
  prerr_endline
    "usage: perfbench --workload local-32x32|ats-12x12|serve-hot|serve-cold \
     --seed N --seconds S --trace 0|1 [--qroute EXE] [--commit SHA]";
  exit 2

let () =
  let rec parse acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let number conv key = match conv (get key) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = number int_of_string_opt "seed" in
  let seconds = number float_of_string_opt "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let qroute =
    Option.value (List.assoc_opt "qroute" opts)
      ~default:"_build/default/bin/qroute_cli.exe"
  in
  let commit = Option.value (List.assoc_opt "commit" opts) ~default:"unknown" in
  Qr_token.Engines.register ();
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let inproc grid engine setup_inputs rebuild () =
    let w = { grid; engine = Router_registry.get engine; setup_inputs; rebuild } in
    if trace then inproc_traced w ~seed ~seconds
    else inproc_end_to_end w ~seed ~seconds
  in
  let serve workers source_of () =
    if trace then serve_traced ~qroute ~name:workload ~workers source_of ~seed ~seconds
    else serve_end_to_end ~workers source_of ~seed ~seconds
  in
  let workers, run =
    match workload with
    | "local-32x32" -> (0, inproc (Grid.make ~rows:32 ~cols:32) "local" 32 rebuild_local)
    | "ats-12x12" -> (0, inproc (Grid.make ~rows:12 ~cols:12) "ats" 16 rebuild_ats)
    | "serve-hot" -> (1, serve 1 hot_source)
    | "serve-cold" -> (cores, serve cores cold_source)
    | _ -> usage ()
  in
  match run () with
  | metrics ->
      if trace then
        Spans.write_jsonl (Printf.sprintf "%s/spans-%s.jsonl" run_dir workload);
      let host =
        Json.Obj
          [
            ("cores", Json.Int cores);
            ("ocaml", Json.String Sys.ocaml_version);
            ("commit", Json.String commit);
            ("seed", Json.Int seed);
            ("server_workers", if workers = 0 then Json.Null else Json.Int workers);
          ]
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("host", host);
                ("workload", Json.String workload);
                ("trace", Json.Bool trace);
                ( "failed_share",
                  Json.Obj
                    [
                      ("value", Json.Float (per (float_of_int !failed) (float_of_int !attempted)));
                      ("base", Json.String "attempted operations");
                    ] );
                ( "calibration",
                  Json.Obj
                    [
                      ("kernel_ms_median", Json.Float (median !cal_samples));
                      ("reference_ms", Json.Float cal_ref_ms);
                      ("samples", Json.Int (List.length !cal_samples));
                    ] );
                ( "raw_metrics",
                  Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) metrics) );
              ]));
      print_result ~correct:(!failed = 0) (List.map at_reference_speed metrics)
  | exception Fatal msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 1
