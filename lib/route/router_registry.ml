module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Json = Qr_obs.Json
module Fault = Qr_fault.Fault

let table : (string, Router_intf.t) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

(* The [engine.plan] fault points live inside the leaf
   engines, attached here at registration time — not in the callers — so
   resilience wrappers like {!verified} observe their children's injected
   faults instead of being re-injected themselves.  Alongside the
   generic points each engine gets name-qualified ones —
   [engine.plan.<name>] and [engine.slow]/[engine.slow.<name>] — so a
   chaos plan can break or slow exactly one engine (say the primary)
   while its fallback chain stays healthy; that is what lets a test trip
   one circuit breaker deterministically. *)
let with_fault_points (engine : Router_intf.t) =
  let plan_point = "engine.plan." ^ engine.Router_intf.name in
  let slow_point = "engine.slow." ^ engine.Router_intf.name in
  {
    engine with
    Router_intf.route =
      (fun config input ->
        Fault.point "engine.slow" ~f:(fun () ->
            Fault.point slow_point ~f:(fun () ->
                Fault.point "engine.plan" ~f:(fun () ->
                    Fault.point plan_point ~f:(fun () ->
                        engine.Router_intf.route config input)))));
  }

let register (engine : Router_intf.t) =
  let name = engine.Router_intf.name in
  if name = "" then invalid_arg "Router_registry.register: empty name";
  if Hashtbl.mem table name then
    invalid_arg
      (Printf.sprintf "Router_registry.register: duplicate engine %S" name);
  Hashtbl.replace table name (with_fault_points engine);
  order := name :: !order

let find name = Hashtbl.find_opt table name

let names () = List.rev !order

let all () = List.filter_map find (names ())

let get name =
  match find name with
  | Some engine -> engine
  | None ->
      invalid_arg
        (Printf.sprintf "Router_registry.get: unknown engine %S (registered: %s)"
           name
           (String.concat ", " (names ())))

(* [best] races each contender through the registry, so one it cannot
   find, or [best] itself, fails the request after it is admitted. *)
let check_config config =
  match Router_config.check config with
  | Ok { Router_config.best_of = Some names; _ } as checked -> (
      match List.find_opt (fun n -> n = "best" || find n = None) names with
      | Some name ->
          Error (Printf.sprintf "best: %S is not an engine best can race" name)
      | None -> checked)
  | checked -> checked

(* {2 Explicit generic-graph fallback} *)

let c_fallbacks =
  Metrics.counter "router_fallbacks"
    ~help:"Grid-only engines redirected to the generic-graph fallback."

let note_fallback ~from ~to_ =
  Metrics.incr c_fallbacks;
  Log.warn_once
    ~key:("fallback:" ^ from)
    "engine is grid-only; using fallback for generic graphs"
    [ ("engine", Json.String from); ("fallback", Json.String to_) ]

let generic_fallback = "ats"

let route_generic ?config engine graph dist pi =
  let engine =
    if engine.Router_intf.capabilities.grid_only then begin
      note_fallback ~from:engine.Router_intf.name ~to_:generic_fallback;
      get generic_fallback
    end
    else engine
  in
  Router_intf.route ?config engine (Router_intf.Graph_input (graph, dist, pi))

(* {2 Verified routing with graceful degradation} *)

let c_verify_failures = Metrics.counter "router_verify_failures"
let c_degraded = Metrics.counter "router_degraded"

(* Plain tallies next to the metrics counters: the counters only count
   while Metrics is enabled, but health reports must see degradation
   regardless.  Atomic so worker domains can bump them race-free
   (DESIGN.md §13). *)
let verify_failures_total = Atomic.make 0
let degradations_total = Atomic.make 0
let verify_failures () = Atomic.get verify_failures_total
let degradations () = Atomic.get degradations_total

exception Verification_failed of { engine : string; reason : string }

let () =
  Printexc.register_printer (function
    | Verification_failed { engine; reason } ->
        Some
          (Printf.sprintf "Router_registry.Verification_failed(engine %S: %s)"
             engine reason)
    | _ -> None)

let validate input sched =
  let n = Router_intf.input_size input in
  let pi = Router_intf.input_perm input in
  let valid =
    match input with
    | Router_intf.Grid_input (grid, _) -> Schedule.is_valid_grid grid sched
    | Router_intf.Graph_input (g, _, _) -> Schedule.is_valid g sched
  in
  if not valid then
    Error "a layer is not a matching of the coupling graph"
  else if not (Schedule.realizes ~n sched pi) then
    Error "the schedule does not realize the requested permutation"
  else Ok ()

let verify_chain = [ generic_fallback; "naive" ]

let note_verify_failure ~engine ~reason =
  Atomic.incr verify_failures_total;
  Metrics.incr c_verify_failures;
  Log.warn_once ~key:("verify:" ^ engine)
    "engine produced no verified schedule; degrading through the fallback \
     chain"
    [ ("engine", Json.String engine); ("reason", Json.String reason) ]

(* Wrap an engine so every schedule it emits is checked against the
   routing invariant (valid matchings realizing pi) before it can
   escape.  An invalid schedule or a raising engine degrades through
   [verify_chain] — each candidate verified the same way — and only when
   the whole chain is exhausted does the wrapper raise.  With [breaker],
   every primary outcome feeds the engine's circuit breaker, and an
   open breaker skips the primary entirely (straight to the chain) —
   the misbehaving engine stops charging a full failure per request. *)
let verified ?breaker engine =
  let attempt config input candidate =
    match Router_intf.run candidate config input with
    | sched -> (
        match validate input sched with
        | Ok () -> Ok sched
        | Error _ as e -> e)
    (* Cancellation is the request's verdict, not the engine's: it must
       not count as an engine failure, feed the breaker, or start a
       degradation walk that would only raise [Cancelled] again. *)
    | exception (Qr_util.Cancel.Cancelled _ as exn) -> raise exn
    | exception exn -> Error (Printexc.to_string exn)
  in
  let degrade config input reason =
    let graph_input =
      match input with
      | Router_intf.Graph_input _ -> true
      | Router_intf.Grid_input _ -> false
    in
    let rec go = function
      | [] ->
          raise
            (Verification_failed { engine = engine.Router_intf.name; reason })
      | name :: rest -> (
          let candidate =
            if name = engine.Router_intf.name then None
            else
              match find name with
              | Some e when e.Router_intf.capabilities.grid_only && graph_input
                ->
                  None
              | c -> c
          in
          match candidate with
          | None -> go rest
          | Some fallback -> (
              match attempt config input fallback with
              | Ok sched ->
                  Atomic.incr degradations_total;
                  Metrics.incr c_degraded;
                  Trace.add_attr "degraded_to"
                    (Trace.String fallback.Router_intf.name);
                  sched
              | Error reason ->
                  note_verify_failure ~engine:fallback.Router_intf.name ~reason;
                  go rest))
    in
    go verify_chain
  in
  let settle ticket ~ok =
    match (breaker, ticket) with
    | None, _ -> ()
    | Some b, `Admit -> Breaker.record b ~ok
    | Some b, `Probe -> Breaker.record_probe b ~ok
  in
  let route config input =
    let ticket =
      match breaker with None -> `Admit | Some b -> Breaker.admit b
    in
    match ticket with
    | `Reject ->
        (* Breaker open: don't even invoke the primary.  Not a verify
           failure — the rejection tally lives on the breaker. *)
        Trace.add_attr "breaker_rejected" (Trace.Bool true);
        degrade config input "circuit breaker open"
    | (`Admit | `Probe) as ticket -> (
        match attempt config input engine with
        | Ok sched ->
            settle ticket ~ok:true;
            sched
        | Error reason ->
            settle ticket ~ok:false;
            note_verify_failure ~engine:engine.Router_intf.name ~reason;
            degrade config input reason
        | exception (Qr_util.Cancel.Cancelled _ as exn) ->
            (* Hand the probe slot back unjudged so the breaker doesn't
               stay half-open waiting on a probe that will never report. *)
            (match (breaker, ticket) with
            | Some b, `Probe -> Breaker.abandon_probe b
            | _ -> ());
            raise exn)
  in
  { engine with Router_intf.route }

(* {2 The grid engines} *)

let grid_caps ~transpose =
  {
    Router_intf.grid_only = true;
    supports_transpose = transpose;
    supports_partial = true;
  }

(* What an engine without the transpose race reads of a configuration:
   the compaction post-pass ({!Router_intf.run}) alone.  Each engine's
   [normalize] starts here and keeps or pins the fields it also reads. *)
let compaction_only c =
  {
    Router_config.default with
    transpose = false;
    compaction = c.Router_config.compaction;
  }

let local =
  {
    Router_intf.name = "local";
    capabilities = grid_caps ~transpose:true;
    route =
      (fun config input ->
        let grid, pi = Router_intf.require_grid ~engine:"local" input in
        let discovery = config.Router_config.discovery in
        let assignment = config.Router_config.assignment in
        if config.Router_config.transpose then
          Local_grid_route.route_best_orientation ~discovery ~assignment grid pi
        else Local_grid_route.route ~discovery ~assignment grid pi);
    normalize =
      (fun c ->
        {
          (compaction_only c) with
          discovery = c.discovery;
          assignment = c.assignment;
          transpose = c.transpose;
        });
  }

let local1 =
  {
    Router_intf.name = "local1";
    capabilities = grid_caps ~transpose:false;
    route =
      (fun config input ->
        let grid, pi = Router_intf.require_grid ~engine:"local1" input in
        Local_grid_route.route ~discovery:config.Router_config.discovery
          ~assignment:config.Router_config.assignment grid pi);
    normalize =
      (fun c ->
        { (compaction_only c) with discovery = c.discovery; assignment = c.assignment });
  }

let naive =
  {
    Router_intf.name = "naive";
    capabilities = grid_caps ~transpose:false;
    route =
      (fun _config input ->
        let grid, pi = Router_intf.require_grid ~engine:"naive" input in
        Local_grid_route.route ~discovery:Whole ~assignment:Arbitrary grid pi);
    normalize =
      (fun c -> { (compaction_only c) with discovery = Whole; assignment = Arbitrary });
  }

let snake =
  {
    Router_intf.name = "snake";
    capabilities = grid_caps ~transpose:false;
    route =
      (fun _config input ->
        let grid, pi = Router_intf.require_grid ~engine:"snake" input in
        Path_route.route_snake grid pi);
    normalize = compaction_only;
  }

let default_contenders = [ "local"; "naive" ]

(* [best] routes with what its contenders read: a field away from its
   default keeps the request's value when resetting it to the default
   changes some contender's normalization, and goes to its default
   otherwise, so a value every contender pins or ignores splits no plans.
   A graph input that no contender can route falls back to [ats], so
   when every contender is grid-only [ats]'s view counts too.
   [compaction] stays, because [best] runs its own post-pass, and the
   contender list stays in its order, because ties go to the earlier
   contender; the default list named explicitly is the default. *)
let normalize_best (c : Router_config.t) =
  let d = Router_config.default in
  let names = Option.value c.best_of ~default:default_contenders in
  let contenders =
    List.filter_map find (List.filter (fun n -> n <> "best") names)
  in
  let contenders =
    if List.for_all (fun e -> e.Router_intf.capabilities.grid_only) contenders
    then contenders @ Option.to_list (find generic_fallback)
    else contenders
  in
  let views = lazy (List.map (fun e -> e.Router_intf.normalize c) contenders) in
  let pick value default reset =
    if
      value = default
      || List.exists2
           (fun e view -> e.Router_intf.normalize reset <> view)
           contenders (Lazy.force views)
    then value
    else default
  in
  {
    Router_config.discovery =
      pick c.discovery d.discovery { c with discovery = d.discovery };
    assignment =
      pick c.assignment d.assignment { c with assignment = d.assignment };
    transpose = pick c.transpose d.transpose { c with transpose = d.transpose };
    compaction = c.compaction;
    ats_trials =
      pick c.ats_trials d.ats_trials { c with ats_trials = d.ats_trials };
    seed = pick c.seed d.seed { c with seed = d.seed };
    best_of = (if names = default_contenders then None else c.best_of);
  }

(* Race the configured contenders through the uncounted [run] path and
   keep the shallowest schedule; ties go to the earlier contender, which
   with the default (local before naive) reproduces the paper's
   "no-overhead" combination exactly. *)
let best =
  {
    Router_intf.name = "best";
    capabilities =
      {
        Router_intf.grid_only = false;
        supports_transpose = true;
        supports_partial = true;
      };
    route =
      (fun config input ->
        let wanted =
          match config.Router_config.best_of with
          | Some contenders -> contenders
          | None -> default_contenders
        in
        let wanted = List.filter (fun n -> n <> "best") wanted in
        let contenders = List.map get wanted in
        let usable =
          match input with
          | Router_intf.Grid_input _ -> contenders
          | Router_intf.Graph_input _ ->
              List.filter
                (fun e -> not e.Router_intf.capabilities.grid_only)
                contenders
        in
        match usable with
        | [] -> (
            match input with
            | Router_intf.Graph_input _ ->
                note_fallback ~from:"best" ~to_:generic_fallback;
                Router_intf.run (get generic_fallback) config input
            | Router_intf.Grid_input _ ->
                invalid_arg "Router_registry: best has no contenders")
        | first :: rest ->
            let run e = (e, Router_intf.run e config input) in
            let winner, sched =
              List.fold_left
                (fun (we, ws_sched) e ->
                  let e, s = run e in
                  if Schedule.depth s < Schedule.depth ws_sched then (e, s)
                  else (we, ws_sched))
                (run first) rest
            in
            Trace.add_attr "winner"
              (Trace.String winner.Router_intf.name);
            sched);
    normalize = normalize_best;
  }

let () = List.iter register [ local; local1; naive; snake; best ]
