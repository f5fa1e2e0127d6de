(* Cooperative cancellation tokens for the routing hot loops.

   A token couples an absolute monotonic-clock deadline with an atomic
   kill flag set asynchronously by the server's watchdog.  The routing
   inner loops call [poll] at bounded intervals; the common disarmed
   case ([none]) is a single physical-equality branch, so the
   checkpoints are free for library users that never serve traffic. *)

type reason = Deadline | Killed

exception Cancelled of reason

let reason_name = function Deadline -> "deadline" | Killed -> "killed"

let () =
  Printexc.register_printer (function
    | Cancelled r -> Some (Printf.sprintf "Cancel.Cancelled(%s)" (reason_name r))
    | _ -> None)

type t = {
  mutable deadline_ns : int64;  (* Int64.max_int = no deadline *)
  killed : bool Atomic.t;  (* set by the watchdog, read by the owner *)
  progress : int Atomic.t;  (* liveness word: bumped on strided checks *)
  mutable countdown : int;  (* polls until the next clock read *)
}

(* How many [poll]s between clock reads.  The kill flag is still read on
   every poll (one atomic load); only the [Timer.now_ns] call — and the
   progress-word bump the watchdog uses as a heartbeat — is strided. *)
let stride = 64

let create () =
  {
    deadline_ns = Int64.max_int;
    killed = Atomic.make false;
    progress = Atomic.make 0;
    countdown = 0;
  }

(* The shared never-cancelled token.  [kill]/[set_budget_ms] refuse to
   touch it, so a stray call can never poison every un-tokened caller. *)
let none = create ()

(* Saturating arithmetic: a budget like [max_int] ms clamps to the far
   future, which is no deadline at all, instead of wrapping past the
   monotonic clock into the past (which would expire the request at
   once).  A budget of 0 ms or less is the instant of the call, so the
   first check fires. *)
let set_budget_ms t ms =
  if t != none then begin
    let ms = Int64.of_int (max 0 ms) in
    let budget_ns =
      if Int64.compare ms (Int64.div Int64.max_int 1_000_000L) > 0 then
        Int64.max_int
      else Int64.mul ms 1_000_000L
    in
    let now = Timer.now_ns () in
    t.deadline_ns <-
      (if Int64.compare budget_ns (Int64.sub Int64.max_int now) > 0 then
         Int64.max_int
       else Int64.add now budget_ns)
  end

let with_budget_ms t ms f =
  let prev = t.deadline_ns in
  set_budget_ms t ms;
  Fun.protect ~finally:(fun () -> if t != none then t.deadline_ns <- prev) f

let kill t = if t != none then Atomic.set t.killed true

let killed t = Atomic.get t.killed

let progress t = Atomic.get t.progress

let check t =
  if t != none then begin
    if Atomic.get t.killed then raise (Cancelled Killed);
    if t.deadline_ns <> Int64.max_int && Timer.now_ns () >= t.deadline_ns then
      raise (Cancelled Deadline)
  end

(* [countdown] is owner-mutated without synchronization; a batch fanned
   across domains shares one token, and the benign race only jitters how
   often the clock is read — the kill flag is checked on every poll. *)
let poll t =
  if t != none then begin
    if Atomic.get t.killed then raise (Cancelled Killed);
    t.countdown <- t.countdown - 1;
    if t.countdown <= 0 then begin
      t.countdown <- stride;
      Atomic.incr t.progress;
      if t.deadline_ns <> Int64.max_int && Timer.now_ns () >= t.deadline_ns
      then raise (Cancelled Deadline)
    end
  end

(* ------------------------------------------------------- ambient token *)

(* The per-domain current token.  Threading a token through every
   routing signature would churn the whole engine API; instead the
   request layer installs the token for the duration of the call and the
   hot loops fetch it once at entry.  A request fanned across domains
   installs its token again inside each fanned-out closure, so a batch
   item polls its request's token on whichever domain runs it. *)
let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> none)

let ambient () = Domain.DLS.get ambient_key

let with_ambient t f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f
