module Grid = Qr_graph.Grid
module Metrics = Qr_obs.Metrics
module Fault = Qr_fault.Fault
module Router_config = Qr_route.Router_config
module Schedule = Qr_route.Schedule

let c_hits = Metrics.counter "plan_cache_hits"
let c_misses = Metrics.counter "plan_cache_misses"
let c_evictions = Metrics.counter "plan_cache_evictions"

type key = string

(* Fixed-width fields first (rows, cols, n, the engine name's length),
   then every permutation entry at one width, 4 bytes while the entries
   fit below 2^31 and 8 past that, then the engine name and the config
   text.  So two keys are equal exactly when all five parts are, with no
   digest to collide.  A 16x16 key is one string of 1,060 bytes and the
   config text. *)
let key ~grid ~pi ~engine ~config =
  let n = Array.length pi in
  let config = Router_config.to_string config in
  let width = if n <= 1 lsl 31 then 4 else 8 in
  let engine_at = 32 + (width * n) in
  let config_at = engine_at + String.length engine in
  let b = Bytes.create (config_at + String.length config) in
  Bytes.set_int64_le b 0 (Int64.of_int (Grid.rows grid));
  Bytes.set_int64_le b 8 (Int64.of_int (Grid.cols grid));
  Bytes.set_int64_le b 16 (Int64.of_int n);
  Bytes.set_int64_le b 24 (Int64.of_int (String.length engine));
  for k = 0 to n - 1 do
    let d = pi.(k) in
    if d < 0 || d >= n then invalid_arg "Plan_cache.key: not a permutation";
    if width = 4 then Bytes.set_int32_le b (32 + (4 * k)) (Int32.of_int d)
    else Bytes.set_int64_le b (32 + (8 * k)) (Int64.of_int d)
  done;
  Bytes.blit_string engine 0 b engine_at (String.length engine);
  Bytes.blit_string config 0 b config_at (String.length config);
  Bytes.unsafe_to_string b

(* Doubly-linked recency list threaded through the table's entries: head =
   most recent, tail = next eviction.  All operations O(1). *)
type entry = {
  e_key : key;
  value : Schedule.t;
  mutable prev : entry option;  (* towards the head *)
  mutable next : entry option;  (* towards the tail *)
}

(* Domain-safety (DESIGN.md §13): one mutex guards the table, the
   recency list and the stat counters together, so concurrent find/add
   from worker domains can never tear an entry or skew hits+misses away
   from the lookup count.  A single lock (rather than shards) keeps the
   LRU eviction order globally exact — the semantics the tests pin down;
   per-worker sharding is a ROADMAP follow-up.  Fault points fire
   {e outside} the critical section so a raising action can never leave
   the mutex held. *)
type t = {
  capacity : int;
  mutable limit : int;  (* soft cap <= capacity; brownout shrinks it *)
  mutex : Mutex.t;
  table : (key, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 128) () =
  if capacity < 0 then invalid_arg "Plan_cache.create: negative capacity";
  {
    capacity;
    limit = capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let capacity t = t.capacity
let length t = locked t @@ fun () -> Hashtbl.length t.table
let hits t = locked t @@ fun () -> t.hits
let misses t = locked t @@ fun () -> t.misses
let evictions t = locked t @@ fun () -> t.evictions

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

(* Chaos corruptor for the [cache.find] fault point: mangle the hit the
   smallest way the verifier must still catch — drop the first layer of a
   nonempty schedule (wrong permutation), or invent a swap for an empty
   one.  The stored entry itself is never mutated, so evicting and
   replanning heals the poisoned key. *)
let corrupt_schedule s =
  match Schedule.layers s with
  | [] -> Schedule.of_layers [ [| (0, 1) |] ]
  | _ :: rest -> Schedule.of_layers rest

let find t k =
  Fault.point "cache.find" ~f:(fun () -> ());
  let hit =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table k with
    | Some e ->
        t.hits <- t.hits + 1;
        Metrics.incr c_hits;
        unlink t e;
        push_front t e;
        Some e.value
    | None ->
        t.misses <- t.misses + 1;
        Metrics.incr c_misses;
        None
  in
  match hit with
  | Some v -> Some (Fault.corrupt "cache.find" corrupt_schedule v)
  | None -> None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
      unlink t e;
      Hashtbl.remove t.table e.e_key;
      t.evictions <- t.evictions + 1;
      Metrics.incr c_evictions

let add t k v =
  Fault.point "cache.insert" ~f:(fun () -> ());
  if t.limit > 0 then
    locked t @@ fun () ->
    (match Hashtbl.find_opt t.table k with
    | Some old ->
        unlink t old;
        Hashtbl.remove t.table k
    | None -> ());
    let e = { e_key = k; value = v; prev = None; next = None } in
    push_front t e;
    Hashtbl.replace t.table k e;
    while Hashtbl.length t.table > t.limit do
      evict_lru t
    done

let limit t = t.limit

let set_limit t n =
  if n < 0 then invalid_arg "Plan_cache.set_limit: negative limit";
  locked t @@ fun () ->
  t.limit <- min n t.capacity;
  while Hashtbl.length t.table > t.limit do
    evict_lru t
  done

let find_or_add t k compute =
  match find t k with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      add t k v;
      (v, false)

let remove t k =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some e ->
      unlink t e;
      Hashtbl.remove t.table k

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
