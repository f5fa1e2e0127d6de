module Sys_poll = Qr_util.Sys_poll
module Timer = Qr_util.Timer
module Metrics = Qr_obs.Metrics
module Fault = Qr_fault.Fault

let c_wakeups =
  Metrics.counter "server_loop_wakeups"
    ~help:
      "Event-loop returns from poll (ready fds or timer expiry); \
       an idle server with no timers armed makes none."

type handle = {
  h_fd : Unix.file_descr;
  mutable h_read : bool;
  mutable h_write : bool;
  mutable h_active : bool;
  h_cb : readable:bool -> writable:bool -> unit;
}

type timer = {
  mutable t_due_ns : int64;
  t_period_ns : int64 option;
  t_cb : unit -> unit;
  mutable t_active : bool;
}

type t = {
  mutable handles : handle list;
  mutable timers : timer list;
  mutable wakeups : int;
}

let create () = { handles = []; timers = []; wakeups = 0 }

let fd_count t =
  List.length (List.filter (fun h -> h.h_active) t.handles)

let watch t ?(readable = true) ?(writable = false) fd cb =
  let h =
    { h_fd = fd; h_read = readable; h_write = writable; h_active = true;
      h_cb = cb }
  in
  t.handles <- h :: t.handles;
  h

let set_interest _t h ?readable ?writable () =
  (match readable with Some r -> h.h_read <- r | None -> ());
  match writable with Some w -> h.h_write <- w | None -> ()

let unwatch t h =
  h.h_active <- false;
  t.handles <- List.filter (fun x -> x != h) t.handles

let add_timer t ?period_ns ~delay_ns cb =
  (match period_ns with
  | Some p when Int64.compare p 0L <= 0 ->
      invalid_arg "Event_loop.add_timer: period_ns <= 0"
  | _ -> ());
  let delay_ns = if Int64.compare delay_ns 0L < 0 then 0L else delay_ns in
  let tm =
    {
      t_due_ns = Int64.add (Timer.now_ns ()) delay_ns;
      t_period_ns = period_ns;
      t_cb = cb;
      t_active = true;
    }
  in
  t.timers <- tm :: t.timers;
  tm

let cancel_timer t tm =
  tm.t_active <- false;
  t.timers <- List.filter (fun x -> x != tm) t.timers

let wakeups t = t.wakeups

(* Next timer expiry as a poll timeout in ms: -1 = no timer armed (block
   until fd readiness or a signal), 0 = already due. *)
let timeout_ms t =
  let next =
    List.fold_left
      (fun acc tm ->
        if not tm.t_active then acc
        else
          match acc with
          | None -> Some tm.t_due_ns
          | Some d -> if Int64.compare tm.t_due_ns d < 0 then Some tm.t_due_ns else acc)
      None t.timers
  in
  match next with
  | None -> -1
  | Some due ->
      let delta = Int64.sub due (Timer.now_ns ()) in
      if Int64.compare delta 0L <= 0 then 0
      else
        (* Round up so a timer never finds itself polled just short of
           due in a hot loop. *)
        let ms = Int64.div (Int64.add delta 999_999L) 1_000_000L in
        Int64.to_int (Int64.min ms 3_600_000L)

(* Fire every due timer in due order.  Periodic timers reschedule from
   [now] (coalescing): a cycle that ran long fires the timer once and
   moves on — the cadence slips rather than burst-firing to catch up. *)
let fire_timers t =
  let now = Timer.now_ns () in
  let due =
    List.filter
      (fun tm -> tm.t_active && Int64.compare tm.t_due_ns now <= 0)
      t.timers
  in
  let due = List.sort (fun a b -> Int64.compare a.t_due_ns b.t_due_ns) due in
  List.iter
    (fun tm ->
      if tm.t_active then begin
        (match tm.t_period_ns with
        | Some p -> tm.t_due_ns <- Int64.add now p
        | None -> tm.t_active <- false);
        tm.t_cb ()
      end)
    due;
  t.timers <- List.filter (fun tm -> tm.t_active) t.timers

(* One kernel wait.  The snapshot arrays are rebuilt per cycle (the
   handle list mutates under dispatch); dispatch re-checks [h_active]
   so a callback closing a later connection in the same cycle wins. *)
let poll_once t ~timeout =
  let interested =
    List.filter (fun h -> h.h_active && (h.h_read || h.h_write)) t.handles
  in
  let harr = Array.of_list interested in
  let n = Array.length harr in
  let fds = Array.map (fun h -> h.h_fd) harr in
  let events =
    Array.map
      (fun h ->
        (if h.h_read then Sys_poll.pollin else 0)
        lor if h.h_write then Sys_poll.pollout else 0)
      harr
  in
  let revents = Array.make n 0 in
  match Sys_poll.poll ~fds ~events ~revents ~timeout_ms:timeout with
  | _ready ->
      t.wakeups <- t.wakeups + 1;
      Metrics.incr c_wakeups;
      Array.iteri
        (fun i rv ->
          if rv <> 0 then begin
            let h = harr.(i) in
            if h.h_active then begin
              let err = rv land Sys_poll.pollerr <> 0 in
              (* An error/hup condition is delivered on whichever
                 interest is armed, so the read or flush path surfaces
                 the real errno itself. *)
              let readable =
                h.h_read && (rv land Sys_poll.pollin <> 0 || err)
              in
              let writable =
                h.h_write && (rv land Sys_poll.pollout <> 0 || err)
              in
              if readable || writable then h.h_cb ~readable ~writable
            end
          end)
        revents;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let run_once t =
  let timeout = timeout_ms t in
  let dispatched =
    (* The fault point covers the kernel wait itself: raise(eintr)
       storms the multiplexer, delay(ms) stalls a cycle.  A plain
       injected raise is absorbed as an empty wakeup so a chaos plan
       cannot kill the loop at its root. *)
    match Fault.point "server.poll" ~f:(fun () -> poll_once t ~timeout) with
    | ok -> ok
    | exception Fault.Injected _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  if dispatched then fire_timers t
  else
    (* EINTR: still honour due timers — a signal storm must not starve
       the watchdog cadence. *)
    fire_timers t

let run ?(on_cycle = fun () -> ()) t ~stop =
  while not (stop ()) do
    run_once t;
    on_cycle ()
  done
