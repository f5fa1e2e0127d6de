module Metrics = Qr_obs.Metrics
module Fault = Qr_fault.Fault

let g_queue_depth =
  Metrics.gauge "server_queue_depth"
    ~help:"Requests queued or running in the worker pool."

let c_restarts =
  Metrics.counter "server_worker_restarts"
    ~help:"Worker domains respawned after the watchdog declared them lost."

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on every enqueue and at shutdown *)
  jobs : (unit -> unit) Queue.t;
  tasks : (unit -> unit) Queue.t;
  queue_bound : int;
  notify : unit -> unit;
  mutable running_jobs : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t array;
  (* Slot [k]'s spawn generation: a worker observing a bumped epoch is a
     superseded zombie and exits its loop instead of taking new work. *)
  epochs : int Atomic.t array;
  mutable zombies : unit Domain.t list;  (* replaced domains, joined at shutdown *)
}

let index_key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_index () = Domain.DLS.get index_key

let workers t = Array.length t.domains

(* Call with [t.mutex] held. *)
let update_depth t =
  Metrics.set g_queue_depth
    (float_of_int (Queue.length t.jobs + t.running_jobs))

(* ------------------------------------------------------------- futures *)

type 'a cell = Pending | Value of 'a | Exn of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable cell : 'a cell;
}

let fulfill fut thunk =
  let result = match thunk () with v -> Value v | exception e -> Exn e in
  Mutex.lock fut.fm;
  fut.cell <- result;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let try_pop_task t =
  Mutex.lock t.mutex;
  let task = if Queue.is_empty t.tasks then None else Some (Queue.pop t.tasks) in
  Mutex.unlock t.mutex;
  task

(* Wait for the future, running queued {e tasks} in the meantime.  Only
   tasks: running another whole job here could re-enter the session the
   calling worker is serving.  Progress: if no task is poppable and the
   future is still pending, its task is running on some domain right
   now, and that domain is not blocked on this future. *)
let is_pending fut =
  Mutex.lock fut.fm;
  let p = match fut.cell with Pending -> true | Value _ | Exn _ -> false in
  Mutex.unlock fut.fm;
  p

let rec await t fut =
  if is_pending fut then
    match try_pop_task t with
    | Some task ->
        task ();
        await t fut
    | None ->
        Mutex.lock fut.fm;
        let rec wait () =
          match fut.cell with
          | Pending ->
              Condition.wait fut.fc fut.fm;
              wait ()
          | Value _ | Exn _ -> ()
        in
        wait ();
        Mutex.unlock fut.fm;
        await t fut
  else
    match fut.cell with
    | Value v -> Ok v
    | Exn e -> Error e
    | Pending -> assert false

(* ---------------------------------------------------------- worker loop *)

let rec worker_loop t k epoch =
  let stale () = Atomic.get t.epochs.(k) <> epoch in
  Mutex.lock t.mutex;
  while
    (not (stale ()))
    && Queue.is_empty t.tasks && Queue.is_empty t.jobs && not t.stopping
  do
    Condition.wait t.nonempty t.mutex
  done;
  if stale () then
    (* Superseded: a replacement domain owns this slot now — exit
       without touching the queues. *)
    Mutex.unlock t.mutex
  else if Queue.is_empty t.tasks && Queue.is_empty t.jobs then
    (* stopping, both queues drained *)
    Mutex.unlock t.mutex
  else begin
    let from_tasks = not (Queue.is_empty t.tasks) in
    let work =
      if from_tasks then Queue.pop t.tasks
      else begin
        let j = Queue.pop t.jobs in
        t.running_jobs <- t.running_jobs + 1;
        update_depth t;
        j
      end
    in
    Mutex.unlock t.mutex;
    (* Jobs and tasks are responsible for their own error plumbing;
       nothing they raise may kill the worker. *)
    (try work () with _ -> ());
    if not from_tasks then begin
      Mutex.lock t.mutex;
      t.running_jobs <- t.running_jobs - 1;
      update_depth t;
      Mutex.unlock t.mutex;
      t.notify ()
    end;
    worker_loop t k epoch
  end

let create ?(queue_bound = 32) ?(notify = fun () -> ()) ~workers () =
  if workers < 1 then invalid_arg "Worker_pool.create: workers < 1";
  if queue_bound < 1 then invalid_arg "Worker_pool.create: queue_bound < 1";
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      tasks = Queue.create ();
      queue_bound;
      notify;
      running_jobs = 0;
      stopping = false;
      domains = [||];
      epochs = Array.init workers (fun _ -> Atomic.make 0);
      zombies = [];
    }
  in
  t.domains <-
    Array.init workers (fun k ->
        Domain.spawn (fun () ->
            Domain.DLS.set index_key (Some k);
            Fault.set_domain_index (k + 1);
            worker_loop t k 0));
  t

let submit t job =
  Mutex.lock t.mutex;
  let accepted =
    if t.stopping || Queue.length t.jobs >= t.queue_bound then false
    else begin
      Queue.add job t.jobs;
      update_depth t;
      Condition.signal t.nonempty;
      true
    end
  in
  Mutex.unlock t.mutex;
  accepted

let submit_task t task =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    (* Drain mode: no worker may be left to pop it; run inline. *)
    task ()
  end
  else begin
    Queue.add task t.tasks;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex
  end

let map_tasks t f items =
  let futures =
    List.map
      (fun item ->
        let fut = { fm = Mutex.create (); fc = Condition.create (); cell = Pending } in
        submit_task t (fun () -> fulfill fut (fun () -> f item));
        fut)
      items
  in
  let results = List.map (fun fut -> await t fut) futures in
  (* Every item settled; re-raise the first failure in input order. *)
  List.map
    (function Ok v -> v | Error e -> raise e)
    results

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.jobs + t.running_jobs in
  Mutex.unlock t.mutex;
  n

(* Replace the domain in slot [k]: bump the slot epoch (the old domain
   exits its loop as soon as it next checks — a genuinely wedged one
   just never takes new work) and spawn a fresh domain with the same
   worker index and fault stream.  The old domain cannot be killed
   (OCaml domains have no cancellation) so it is parked on the zombie
   list and joined at shutdown; a job it is still running finishes under
   its own error plumbing and decrements [running_jobs] normally.  Main
   domain only. *)
let replace t k =
  if k < 0 || k >= Array.length t.domains then
    invalid_arg "Worker_pool.replace: bad worker index";
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    let epoch = 1 + Atomic.get t.epochs.(k) in
    Atomic.set t.epochs.(k) epoch;
    t.zombies <- t.domains.(k) :: t.zombies;
    Metrics.incr c_restarts;
    (* Wake a zombie parked in Condition.wait so it notices the epoch. *)
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    t.domains.(k) <-
      Domain.spawn (fun () ->
          Domain.DLS.set index_key (Some k);
          Fault.set_domain_index (k + 1);
          worker_loop t k epoch)
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||];
  List.iter Domain.join t.zombies;
  t.zombies <- []
