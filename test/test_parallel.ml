(* Domain-safety tests for the multicore serving stack (DESIGN.md §13):
   metrics under contention, per-domain trace buffers, once-only logging
   across domains, the locked plan cache hammered from several domains,
   the worker pool's ordering/shedding/shutdown contracts, pool-mode
   route_batch equivalence and request scope, and the determinism of
   per-domain fault streams.  Everything here must hold on a single-core box too — the
   schedulers just interleave more coarsely. *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Trace = Qr_obs.Trace
module Log = Qr_obs.Log
module Fault = Qr_fault.Fault
module Cancel = Qr_util.Cancel
module Rng = Qr_util.Rng
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Router_config = Qr_route.Router_config
module P = Qr_server.Protocol
module Plan_cache = Qr_server.Plan_cache
module Session = Qr_server.Session
module Worker_pool = Qr_server.Worker_pool

let () = Qr_token.Engines.register ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let spawn_all fs = List.map Domain.spawn fs
let join_all ds = List.map Domain.join ds

(* ------------------------------------------------------------- metrics *)

let test_counter_contention () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  let c = Metrics.counter ~help:"contended" "par_test_counter" in
  let domains = 4 and per_domain = 2000 in
  ignore
    (join_all
       (spawn_all
          (List.init domains (fun _ () ->
               for _ = 1 to per_domain do
                 Metrics.incr c
               done))));
  checki "no lost increments" (domains * per_domain) (Metrics.value c)

let test_histogram_contention () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  let h = Metrics.histogram ~help:"contended" "par_test_histogram" in
  let domains = 4 and per_domain = 500 in
  ignore
    (join_all
       (spawn_all
          (List.init domains (fun d () ->
               for i = 1 to per_domain do
                 Metrics.observe h (float_of_int ((d * per_domain) + i))
               done))));
  checki "no lost observations" (domains * per_domain)
    (Metrics.histogram_count h);
  (* Every observation lands in the +Inf bucket, whatever its value. *)
  let total = domains * per_domain in
  let sum_expected =
    float_of_int (total * (total + 1)) /. 2.
  in
  checkb "sum consistent" true
    (abs_float (Metrics.histogram_sum h -. sum_expected) < 1e-6)

(* --------------------------------------------------------------- trace *)

let test_trace_per_domain_merge () =
  Trace.start ();
  let spans =
    Fun.protect ~finally:(fun () -> ignore (Trace.stop ()))
    @@ fun () ->
    Trace.with_span "main_span" (fun () -> ());
    ignore
      (join_all
         (spawn_all
            (List.init 2 (fun d () ->
                 Trace.set_trace_id (Some (Printf.sprintf "tid-%d" d));
                 Trace.with_span (Printf.sprintf "domain_span_%d" d)
                   (fun () -> ())))));
    Trace.stop ()
  in
  let names = List.map (fun s -> s.Trace.name) spans in
  List.iter
    (fun expected ->
      checkb (expected ^ " merged") true (List.mem expected names))
    [ "main_span"; "domain_span_0"; "domain_span_1" ];
  (* Each worker's trace id stamped its own spans only. *)
  let tid_of s =
    match List.assoc_opt "trace_id" s.Trace.attrs with
    | Some (Trace.String id) -> Some id
    | _ -> None
  in
  List.iter
    (fun s ->
      match s.Trace.name with
      | "main_span" -> checkb "main unstamped" true (tid_of s = None)
      | "domain_span_0" -> checkb "d0 stamped" true (tid_of s = Some "tid-0")
      | "domain_span_1" -> checkb "d1 stamped" true (tid_of s = Some "tid-1")
      | _ -> ())
    spans

(* ----------------------------------------------------------------- log *)

let test_warn_once_across_domains () =
  let lines = ref [] in
  let lines_mutex = Mutex.create () in
  Log.reset_once ();
  Log.set_sink
    (Some
       (fun line ->
         Mutex.lock lines_mutex;
         lines := line :: !lines;
         Mutex.unlock lines_mutex));
  Fun.protect ~finally:(fun () ->
      Log.set_sink None;
      Log.reset_once ())
  @@ fun () ->
  ignore
    (join_all
       (spawn_all
          (List.init 4 (fun _ () ->
               for _ = 1 to 50 do
                 Log.warn_once ~key:"par-once" "deduped warning" []
               done))));
  checki "warned exactly once across domains" 1 (List.length !lines)

(* ---------------------------------------------------------- plan cache *)

(* Hammer one cache from several domains with a mixed find/add/remove
   workload over a key space four times the capacity.  The invariants
   that must survive any interleaving: a hit returns exactly the value
   stored under that key (never another key's schedule), hits + misses
   equals the number of finds, and the LRU bound holds. *)
let test_plan_cache_hammer () =
  let capacity = 8 and key_space = 32 in
  let grid = Grid.make ~rows:6 ~cols:6 in
  let n = Grid.size grid in
  let cache = Plan_cache.create ~capacity () in
  let perm_of j =
    let a = Array.init n (fun q -> q) in
    a.(j) <- j + 1;
    a.(j + 1) <- j;
    Perm.check a
  in
  let key_of j =
    Plan_cache.key ~grid ~pi:(perm_of j) ~engine:"local"
      ~config:Router_config.default
  in
  let keys = Array.init key_space key_of in
  let sched_of j = Qr_route.Schedule.of_layers [ [| (j, j + 1) |] ] in
  let domains = 4 and iterations = 500 in
  let results =
    join_all
      (spawn_all
         (List.init domains (fun d () ->
              let finds = ref 0 and bad = ref 0 in
              for i = 0 to iterations - 1 do
                (* Two-thirds of the traffic hammers a hot set smaller
                   than the capacity (guaranteed hits), the rest sweeps
                   the whole key space (guaranteed evictions). *)
                let j =
                  if i mod 3 < 2 then i mod 4
                  else ((d * 7) + (i * 13)) mod key_space
                in
                (match i mod 11 with
                | 10 -> Plan_cache.remove cache keys.(j)
                | _ -> (
                    incr finds;
                    match Plan_cache.find cache keys.(j) with
                    | Some sched ->
                        if sched <> sched_of j then incr bad
                    | None -> Plan_cache.add cache keys.(j) (sched_of j)))
              done;
              (!finds, !bad))))
  in
  let total_finds = List.fold_left (fun acc (f, _) -> acc + f) 0 results in
  let total_bad = List.fold_left (fun acc (_, b) -> acc + b) 0 results in
  checki "no cross-key value leaks" 0 total_bad;
  checki "hits + misses = finds" total_finds
    (Plan_cache.hits cache + Plan_cache.misses cache);
  checkb "LRU bound holds" true (Plan_cache.length cache <= capacity);
  checkb "some hits happened" true (Plan_cache.hits cache > 0);
  checkb "some evictions happened" true (Plan_cache.evictions cache > 0)

(* ----------------------------------------------------------- worker pool *)

let test_pool_map_tasks_order () =
  let pool = Worker_pool.create ~workers:4 () in
  Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool)
  @@ fun () ->
  let items = List.init 50 (fun i -> i) in
  let squares = Worker_pool.map_tasks pool (fun i -> i * i) items in
  checkb "results in submission order" true
    (squares = List.map (fun i -> i * i) items);
  (* The caller is not a worker; a task may run either on a worker
     domain (stamped with its index) or on the caller itself, which
     helps while awaiting — so [None] is legitimate for tasks. *)
  checkb "caller has no worker index" true (Worker_pool.worker_index () = None);
  let indices =
    Worker_pool.map_tasks pool
      (fun _ -> Worker_pool.worker_index ())
      [ (); (); () ]
  in
  checkb "task worker indices in range" true
    (List.for_all
       (function Some k -> k >= 0 && k < 4 | None -> true)
       indices);
  (* Jobs, unlike tasks, are only ever popped by worker domains, so the
     index stamp is deterministic there. *)
  let idx = Atomic.make (-1) in
  let m = Mutex.create () and c = Condition.create () in
  let finished = ref false in
  checkb "job accepted" true
    (Worker_pool.submit pool (fun () ->
         (match Worker_pool.worker_index () with
         | Some k -> Atomic.set idx k
         | None -> ());
         Mutex.lock m;
         finished := true;
         Condition.signal c;
         Mutex.unlock m));
  Mutex.lock m;
  while not !finished do
    Condition.wait c m
  done;
  Mutex.unlock m;
  checkb "jobs see a worker index" true
    (let k = Atomic.get idx in
     k >= 0 && k < 4)

exception Task_boom

let test_pool_map_tasks_exception () =
  let pool = Worker_pool.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool)
  @@ fun () ->
  (match
     Worker_pool.map_tasks pool
       (fun i -> if i = 3 then raise Task_boom else i)
       [ 0; 1; 2; 3; 4 ]
   with
  | _ -> Alcotest.fail "expected the task's exception to propagate"
  | exception Task_boom -> ());
  (* The pool survives a failed batch. *)
  checkb "pool still works" true
    (Worker_pool.map_tasks pool (fun i -> i + 1) [ 1; 2 ] = [ 2; 3 ])

let test_pool_submit_sheds_when_full () =
  let gate = Mutex.create () and gate_open = Condition.create () in
  let opened = ref false in
  let pool = Worker_pool.create ~workers:1 ~queue_bound:2 () in
  Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool)
  @@ fun () ->
  (* Park the lone worker on a gate, so further jobs pile up in the
     bounded queue. *)
  let started = Atomic.make false in
  let blocker () =
    Atomic.set started true;
    Mutex.lock gate;
    while not !opened do
      Condition.wait gate_open gate
    done;
    Mutex.unlock gate
  in
  checkb "blocker accepted" true (Worker_pool.submit pool blocker);
  (* Wait until the worker has actually taken the blocker job off the
     queue, so the bound below is exercised deterministically. *)
  let rec settle tries =
    if (not (Atomic.get started)) && tries > 0 then (
      Unix.sleepf 0.01;
      settle (tries - 1))
  in
  settle 500;
  checkb "worker picked up the blocker" true (Atomic.get started);
  checkb "first queued job accepted" true
    (Worker_pool.submit pool (fun () -> ()));
  checkb "second queued job accepted" true
    (Worker_pool.submit pool (fun () -> ()));
  checkb "bound reached: submit refuses" false
    (Worker_pool.submit pool (fun () -> ()));
  Mutex.lock gate;
  opened := true;
  Condition.broadcast gate_open;
  Mutex.unlock gate

let test_pool_graceful_shutdown () =
  let ran = Atomic.make 0 in
  let pool = Worker_pool.create ~workers:2 () in
  let accepted = ref 0 in
  for _ = 1 to 20 do
    if Worker_pool.submit pool (fun () -> Atomic.incr ran) then incr accepted
  done;
  Worker_pool.shutdown pool;
  checki "every accepted job ran before shutdown returned" !accepted
    (Atomic.get ran);
  checkb "submit after shutdown refuses" false
    (Worker_pool.submit pool (fun () -> ()));
  (* Idempotent. *)
  Worker_pool.shutdown pool

(* --------------------------------------------------- pool-mode sessions *)

(* The same route_batch request answered by a plain session and by a
   pool-backed one must agree on everything but timing. *)
let test_route_batch_pool_equals_serial () =
  let line =
    {|{"id": 1, "method": "route_batch", "params": {"grid": {"rows": 3, "cols": 3}, "perms": [[8,7,6,5,4,3,2,1,0], [1,0,3,2,5,4,7,6,8], [2,0,1,5,3,4,8,6,7]], "engine": "local"}}|}
  in
  let result_of response =
    match P.response_result (Json.of_string_exn response) with
    | Ok result -> result
    | Error err -> Alcotest.failf "error response: %s" err.P.message
  in
  let serial = result_of (Session.handle_line (Session.create ()) line) in
  let pool = Worker_pool.create ~workers:2 () in
  let pooled =
    Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool)
    @@ fun () -> result_of (Session.handle_line (Session.create ~pool ()) line)
  in
  let member name doc =
    match Json.member name doc with
    | Some v -> v
    | None -> Alcotest.failf "missing %s in %s" name (Json.to_string doc)
  in
  List.iter
    (fun field ->
      Alcotest.check Alcotest.string field
        (Json.to_string (member field serial))
        (Json.to_string (member field pooled)))
    [ "engine"; "schedules"; "cached"; "completed" ]

(* What the probe engine saw of one route_batch item: the domain it ran
   on, whether the ambient cancel token was the request's, and the trace
   id in force. *)
type sighting = { domain : int; token : bool; trace : string option }

let probe_token = ref Cancel.none
let sightings = ref []
let sightings_mutex = Mutex.create ()

let domains_seen () =
  Mutex.lock sightings_mutex;
  let n =
    List.length (List.sort_uniq compare (List.map (fun s -> s.domain) !sightings))
  in
  Mutex.unlock sightings_mutex;
  n

(* Routes like [local], after recording its sighting and holding the item
   (up to 10 s) until a second domain has entered, so at least one item of
   a pooled batch runs off the session's domain. *)
let () =
  let local = Qr_route.Router_registry.get "local" in
  try
    Qr_route.Router_registry.register
      {
        local with
        Qr_route.Router_intf.name = "scope-probe";
        route =
          (fun config input ->
            let s =
              {
                domain = (Domain.self () :> int);
                token = Cancel.ambient () == !probe_token;
                trace = Trace.trace_id ();
              }
            in
            Mutex.lock sightings_mutex;
            sightings := s :: !sightings;
            Mutex.unlock sightings_mutex;
            let rec hold tries =
              if domains_seen () < 2 && tries > 0 then begin
                Unix.sleepf 0.001;
                hold (tries - 1)
              end
            in
            hold 10_000;
            local.Qr_route.Router_intf.route config input);
      }
  with Invalid_argument _ -> ()

let test_batch_items_carry_request_scope () =
  let tid = "0123456789abcdef0123456789abcdef" in
  let line =
    Printf.sprintf
      {|{"id": 1, "method": "route_batch", "params": {"grid": {"rows": 3, "cols": 3}, "perms": [[8,7,6,5,4,3,2,1,0], [1,0,3,2,5,4,7,6,8], [2,0,1,5,3,4,8,6,7], [0,1,2,3,4,5,6,8,7]], "engine": "scope-probe"}, "trace": "00-%s-00f067aa0ba902b7-01"}|}
      tid
  in
  let token = Cancel.create () in
  probe_token := token;
  sightings := [];
  let pool = Worker_pool.create ~workers:2 () in
  let response =
    Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool) @@ fun () ->
    Cancel.with_ambient token (fun () ->
        Session.handle_line (Session.create ~pool ()) line)
  in
  (match P.response_result (Json.of_string_exn response) with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "error response: %s" err.P.message);
  let seen = !sightings in
  checki "one sighting per item" 4 (List.length seen);
  let here = (Domain.self () :> int) in
  checkb "an item ran off the session's domain" true
    (List.exists (fun s -> s.domain <> here) seen);
  checkb "every item saw the request's token" true
    (List.for_all (fun s -> s.token) seen);
  checkb "every item saw the request's trace id" true
    (List.for_all (fun s -> s.trace = Some tid) seen)

(* -------------------------------------------------------- fault streams *)

let qc = QCheck_alcotest.to_alcotest

let draws rng k = List.init k (fun _ -> Rng.next_int64 rng)

let prop_fault_streams_deterministic =
  QCheck.Test.make ~name:"derive_stream deterministic per (seed, domain)"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_bound 8))
    (fun (seed, domain) ->
      draws (Fault.derive_stream ~seed ~domain) 5
      = draws (Fault.derive_stream ~seed ~domain) 5)

let prop_fault_streams_distinct =
  QCheck.Test.make ~name:"derive_stream distinct across domain indices"
    ~count:100
    QCheck.(triple (int_bound 100_000) (int_bound 8) (int_bound 8))
    (fun (seed, d1, d2) ->
      QCheck.assume (d1 <> d2);
      draws (Fault.derive_stream ~seed ~domain:d1) 5
      <> draws (Fault.derive_stream ~seed ~domain:d2) 5)

let test_fault_stream_domain_zero_is_legacy () =
  (* Domain 0 must draw exactly the single-domain sequence, so armed
     chaos plans replay identically under [--workers 1]. *)
  checkb "domain 0 = Rng.create seed" true
    (draws (Fault.derive_stream ~seed:1234 ~domain:0) 8
    = draws (Rng.create 1234) 8)

(* ------------------------------------------------------------------ run *)

let () =
  Alcotest.run "qr_parallel"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter contention" `Quick
            test_counter_contention;
          Alcotest.test_case "histogram contention" `Quick
            test_histogram_contention;
        ] );
      ( "trace",
        [
          Alcotest.test_case "per-domain merge" `Quick
            test_trace_per_domain_merge;
        ] );
      ( "log",
        [
          Alcotest.test_case "warn_once across domains" `Quick
            test_warn_once_across_domains;
        ] );
      ( "plan_cache",
        [ Alcotest.test_case "concurrent hammer" `Quick test_plan_cache_hammer ]
      );
      ( "worker_pool",
        [
          Alcotest.test_case "map_tasks order" `Quick
            test_pool_map_tasks_order;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_map_tasks_exception;
          Alcotest.test_case "bounded queue sheds" `Quick
            test_pool_submit_sheds_when_full;
          Alcotest.test_case "graceful shutdown" `Quick
            test_pool_graceful_shutdown;
        ] );
      ( "session",
        [
          Alcotest.test_case "route_batch pool = serial" `Quick
            test_route_batch_pool_equals_serial;
          Alcotest.test_case "batch items carry the request scope" `Quick
            test_batch_items_carry_request_scope;
        ] );
      ( "fault_streams",
        [
          qc prop_fault_streams_deterministic;
          qc prop_fault_streams_distinct;
          Alcotest.test_case "domain 0 is the legacy stream" `Quick
            test_fault_stream_domain_zero_is_legacy;
        ] );
    ]
