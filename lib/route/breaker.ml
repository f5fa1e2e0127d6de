module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Json = Qr_obs.Json
module Timer = Qr_util.Timer

type state = Closed | Open | Half_open

(* Gauge encoding: 0 closed, 1 open, 2 half-open. *)
let state_gauge_value = function Closed -> 0. | Open -> 1. | Half_open -> 2.

type config = {
  window : int;
  threshold : int;
  cooldown_ns : int64;
  probes : int;
}

let default_config =
  { window = 16; threshold = 5; cooldown_ns = 2_000_000_000L; probes = 2 }

let check_config c =
  if c.window < 1 then invalid_arg "Breaker: window must be positive";
  if c.threshold < 1 then invalid_arg "Breaker: threshold must be positive";
  if c.threshold > c.window then
    invalid_arg "Breaker: threshold cannot exceed the window";
  if Int64.compare c.cooldown_ns 0L < 0 then
    invalid_arg "Breaker: cooldown must be non-negative";
  if c.probes < 1 then invalid_arg "Breaker: probes must be positive"

let c_trips =
  Metrics.counter "router_breaker_trips"
    ~help:"Circuit breakers tripped open (including re-trips from half-open)."

let c_rejections =
  Metrics.counter "router_breaker_rejections"
    ~help:"Requests skipped past an open engine straight to its fallbacks."

let c_recoveries =
  Metrics.counter "router_breaker_recoveries"
    ~help:"Circuit breakers closed again after successful half-open probes."

(* Prometheus-safe metric suffix for an engine name ("ats-serial" →
   "ats_serial"). *)
let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name

type t = {
  name : string;
  config : config;
  mutex : Mutex.t;
  ring : bool array;  (* rolling outcomes, [true] = failure *)
  mutable ring_len : int;
  mutable ring_pos : int;
  mutable failures : int;  (* failures currently in the ring *)
  mutable state : state;
  mutable opened_at_ns : int64;
  mutable probe_inflight : bool;
  mutable probe_successes : int;
  (* Plain tallies next to the metrics counters (the counters only move
     while Metrics is enabled, but health reports and tests must see
     breaker activity regardless). *)
  mutable trips : int;
  mutable rejections : int;
  mutable recoveries : int;
  gauge : Metrics.gauge;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let create ?(config = default_config) name =
  check_config config;
  let gauge =
    Metrics.gauge
      ("router_breaker_state_" ^ sanitize name)
      ~help:"Breaker state: 0 closed, 1 open, 2 half-open."
  in
  Metrics.set gauge (state_gauge_value Closed);
  {
    name;
    config;
    mutex = Mutex.create ();
    ring = Array.make config.window false;
    ring_len = 0;
    ring_pos = 0;
    failures = 0;
    state = Closed;
    opened_at_ns = 0L;
    probe_inflight = false;
    probe_successes = 0;
    trips = 0;
    rejections = 0;
    recoveries = 0;
    gauge;
  }

let set_state t s =
  t.state <- s;
  Metrics.set t.gauge (state_gauge_value s)

let clear_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.failures <- 0

(* Caller holds the lock. *)
let trip t ~reason =
  set_state t Open;
  t.opened_at_ns <- Timer.now_ns ();
  t.probe_inflight <- false;
  t.probe_successes <- 0;
  t.trips <- t.trips + 1;
  Metrics.incr c_trips;
  Log.warn "circuit breaker tripped open"
    [
      ("engine", Json.String t.name);
      ("reason", Json.String reason);
      ("failures", Json.Int t.failures);
      ("window", Json.Int t.ring_len);
    ]

let admit t =
  locked t @@ fun () ->
  match t.state with
  | Closed -> `Admit
  | Open ->
      let elapsed = Int64.sub (Timer.now_ns ()) t.opened_at_ns in
      if Int64.compare elapsed t.config.cooldown_ns >= 0 then begin
        set_state t Half_open;
        t.probe_inflight <- true;
        t.probe_successes <- 0;
        Log.info "circuit breaker half-open; probing"
          [ ("engine", Json.String t.name) ];
        `Probe
      end
      else begin
        t.rejections <- t.rejections + 1;
        Metrics.incr c_rejections;
        `Reject
      end
  | Half_open ->
      if t.probe_inflight then begin
        t.rejections <- t.rejections + 1;
        Metrics.incr c_rejections;
        `Reject
      end
      else begin
        t.probe_inflight <- true;
        `Probe
      end

let record t ~ok =
  locked t @@ fun () ->
  match t.state with
  | Closed ->
      let failure = not ok in
      if t.ring_len < Array.length t.ring then t.ring_len <- t.ring_len + 1
      else if t.ring.(t.ring_pos) then t.failures <- t.failures - 1;
      t.ring.(t.ring_pos) <- failure;
      t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
      if failure then begin
        t.failures <- t.failures + 1;
        if t.failures >= t.config.threshold then
          trip t ~reason:"failure threshold reached"
      end
  | Open | Half_open ->
      (* A straggler admitted before the trip settled; its outcome no
         longer bears on the fresh window the breaker will build after
         recovery. *)
      ()

let abandon_probe t =
  locked t @@ fun () ->
  match t.state with
  | Half_open -> t.probe_inflight <- false
  | Closed | Open -> ()

let record_probe t ~ok =
  locked t @@ fun () ->
  match t.state with
  | Half_open ->
      t.probe_inflight <- false;
      if ok then begin
        t.probe_successes <- t.probe_successes + 1;
        if t.probe_successes >= t.config.probes then begin
          clear_window t;
          set_state t Closed;
          t.recoveries <- t.recoveries + 1;
          Metrics.incr c_recoveries;
          Log.info "circuit breaker recovered"
            [ ("engine", Json.String t.name) ]
        end
      end
      else trip t ~reason:"half-open probe failed"
  | Closed | Open ->
      (* The probe raced a concurrent transition; nothing to settle. *)
      ()

let state t = locked t @@ fun () -> t.state
let name t = t.name
let trips t = locked t @@ fun () -> t.trips
let rejections t = locked t @@ fun () -> t.rejections
let recoveries t = locked t @@ fun () -> t.recoveries

let reset t =
  locked t @@ fun () ->
  clear_window t;
  set_state t Closed;
  t.probe_inflight <- false;
  t.probe_successes <- 0

(* {2 Global per-engine table} *)

let table : (string, t) Hashtbl.t = Hashtbl.create 8
let table_mutex = Mutex.create ()

let get_or_create ?config engine =
  Mutex.lock table_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_mutex) @@ fun () ->
  match Hashtbl.find_opt table engine with
  | Some b -> b
  | None ->
      let b = create ?config engine in
      Hashtbl.replace table engine b;
      b

let clear_all () =
  Mutex.lock table_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_mutex) @@ fun () ->
  Hashtbl.iter (fun _ b -> reset b) table;
  Hashtbl.reset table
