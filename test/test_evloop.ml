(* Tests for the readiness-driven serving loop (DESIGN.md §15): the
   event loop's timers (ordering, periodic coalescing), fd interest
   (readable and writable on one descriptor), wakeup accounting, the
   bounded per-connection write queue, an idle server that makes no
   wakeups and still stops on SIGTERM, serving past FD_SETSIZE
   connections — and the two regression scenarios the loop exists for:
   a slow client is closed at its outbox cap instead of buffering
   without bound, and a client that never reads its responses no longer
   head-of-line-blocks every other connection.  The parity scripts run
   the same request lines through [serve_fd] and the socket server at
   one and at two workers and expect the same replies. *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module P = Qr_server.Protocol
module Session = Qr_server.Session
module Server = Qr_server.Server
module Client = Qr_server.Client
module Event_loop = Qr_server.Event_loop
module Write_queue = Qr_server.Write_queue
module Breaker = Qr_route.Breaker
module Fault = Qr_fault.Fault

let () = Qr_token.Engines.register ()
let () = ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A watchdog for tests that would hang forever under the historical
   blocking-write loop: fail loudly instead of wedging the suite. *)
let with_test_deadline seconds f =
  let prev =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> Alcotest.fail "test deadline expired"))
  in
  ignore (Unix.alarm seconds);
  let finally () =
    ignore (Unix.alarm 0);
    ignore (Sys.signal Sys.sigalrm prev)
  in
  Fun.protect ~finally f

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) (fun () -> f a b)

let counter_value name =
  match Metrics.find_counter name with
  | Some c -> Metrics.value c
  | None -> Alcotest.failf "counter %s not registered" name

(* ---------------------------------------------------------------- timers *)

let test_timer_ordering () =
  let loop = Event_loop.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  (* Registration order is the reverse of due order. *)
  ignore (Event_loop.add_timer loop ~delay_ns:30_000_000L (note "slow"));
  ignore (Event_loop.add_timer loop ~delay_ns:10_000_000L (note "fast"));
  Event_loop.run loop ~stop:(fun () -> List.length !fired >= 2);
  checkb "due order, not registration order" true
    (List.rev !fired = [ "fast"; "slow" ])

let test_timer_coalescing () =
  let loop = Event_loop.create () in
  let ticks = ref 0 in
  let t =
    Event_loop.add_timer loop ~period_ns:20_000_000L ~delay_ns:20_000_000L
      (fun () -> incr ticks)
  in
  (* Miss several periods before the loop first runs: a coalescing timer
     fires once and reschedules from now — never burst-fires to catch
     up. *)
  Unix.sleepf 0.1;
  Event_loop.run_once loop;
  checki "missed periods coalesce into one tick" 1 !ticks;
  (* The period keeps ticking from now. *)
  Event_loop.run_once loop;
  checki "periodic timer re-arms" 2 !ticks;
  (* A cancelled timer never fires again; a one-shot bounds the wait. *)
  Event_loop.cancel_timer loop t;
  ignore (Event_loop.add_timer loop ~delay_ns:30_000_000L (fun () -> ()));
  Event_loop.run_once loop;
  checki "cancelled timer is silent" 2 !ticks

let test_wakeup_accounting () =
  let loop = Event_loop.create () in
  checki "no wakeups before running" 0 (Event_loop.wakeups loop);
  ignore (Event_loop.add_timer loop ~delay_ns:1_000_000L (fun () -> ()));
  Event_loop.run_once loop;
  checki "one kernel return, one wakeup" 1 (Event_loop.wakeups loop)

(* ----------------------------------------------------------- fd interest *)

let test_readable_and_writable () =
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  let loop = Event_loop.create () in
  let got = ref (false, false) in
  let h =
    Event_loop.watch loop ~readable:true ~writable:true a
      (fun ~readable ~writable -> got := (readable, writable))
  in
  checki "one fd watched" 1 (Event_loop.fd_count loop);
  ignore (Unix.write_substring b "ping\n" 0 5);
  Event_loop.run_once loop;
  checkb "readable and writable fire together" true (!got = (true, true));
  (* Dropping write interest leaves only the readable report. *)
  Event_loop.set_interest loop h ~writable:false ();
  got := (false, false);
  ignore (Unix.write_substring b "more\n" 0 5);
  Event_loop.run_once loop;
  checkb "writable interest disarmed" true (!got = (true, false));
  Event_loop.unwatch loop h;
  checki "unwatch forgets the fd" 0 (Event_loop.fd_count loop)

(* ----------------------------------------------------------- write queue *)

let read_all_nonblock fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_write_queue_round_trip () =
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let wq = Write_queue.create ~cap_bytes:1024 a in
  checkb "fresh queue is empty" true (Write_queue.is_empty wq);
  checkb "enqueue under cap" true (Write_queue.enqueue wq "hello" = `Ok);
  checki "newline counted" 6 (Write_queue.pending_bytes wq);
  checkb "flush drains" true (Write_queue.flush wq = `Idle);
  checkb "drained" true (Write_queue.is_empty wq);
  Alcotest.check Alcotest.string "bytes arrive with the newline" "hello\n"
    (read_all_nonblock b)

let test_write_queue_cap () =
  with_socketpair @@ fun a _b ->
  Unix.set_nonblock a;
  let wq = Write_queue.create ~cap_bytes:100 a in
  let line = String.make 40 'x' in
  checkb "first line fits" true (Write_queue.enqueue wq line = `Ok);
  checkb "second line fits" true (Write_queue.enqueue wq line = `Ok);
  (* 82 bytes queued; a third 41-byte line would cross the cap — it is
     refused and NOT queued. *)
  checkb "cap refuses the overflowing line" true
    (Write_queue.enqueue wq line = `Overflow);
  checki "refused line not queued" 82 (Write_queue.pending_bytes wq)

(* An empty queue takes a line larger than the cap, so one large reply
   is written instead of looking like a stalled reader; the cap still
   refuses what would queue behind it. *)
let test_write_queue_oversized_first_line () =
  with_socketpair @@ fun a _b ->
  Unix.set_nonblock a;
  let wq = Write_queue.create ~cap_bytes:100 a in
  let line = String.make 400 'x' in
  checkb "empty queue takes an oversized line" true
    (Write_queue.enqueue wq line = `Ok);
  checki "whole line queued" 401 (Write_queue.pending_bytes wq);
  checkb "a line behind it overflows" true
    (Write_queue.enqueue wq "y" = `Overflow);
  checki "refused line not queued" 401 (Write_queue.pending_bytes wq)

let test_write_queue_peer_gone () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.close b;
  Fun.protect ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
  @@ fun () ->
  let wq = Write_queue.create ~cap_bytes:1024 a in
  checkb "enqueue still accepts" true (Write_queue.enqueue wq "late" = `Ok);
  checkb "flush reports the dead peer" true (Write_queue.flush wq = `Closed)

(* ------------------------------------------------------ slow-client close *)

let route_line ?(id = 1) () =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0], "engine": "local"}}|}
    id

let test_slow_client_closed_at_cap () =
  (* serve_fd with a tiny outbox cap and a shrunken kernel send buffer:
     the peer writes a pipeline of requests and never reads a byte.
     Once the kernel buffer is full the responses accumulate in the
     write queue; at the cap the connection is declared slow and closed
     — serve_fd returns instead of buffering (or blocking) forever. *)
  with_test_deadline 30 @@ fun () ->
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ())
  @@ fun () ->
  let before = counter_value "server_slow_client_closes" in
  with_socketpair @@ fun server_fd client_fd ->
  Unix.setsockopt_int server_fd Unix.SO_SNDBUF 4096;
  (* Queue the whole pipeline up front as one contiguous write (well
     within the request-side kernel buffer), then let the server
     discover the stalled reader.  150 responses comfortably exceed the
     4KB send buffer plus the 2KB outbox cap. *)
  let pipeline =
    String.concat ""
      (List.init 150 (fun i -> route_line ~id:(i + 1) () ^ "\n"))
  in
  let rec write_all off =
    if off < String.length pipeline then
      let k =
        Unix.write_substring client_fd pipeline off
          (String.length pipeline - off)
      in
      write_all (off + k)
  in
  write_all 0;
  let config = { Session.default_config with Session.max_outbox_bytes = 2048 } in
  Server.serve_fd ~config server_fd;
  checki "slow client counted" (before + 1)
    (counter_value "server_slow_client_closes")

(* --------------------------------------------------- slow-reader isolation *)

let await_socket path =
  let rec go tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 250

let counter_of stats name =
  match Json.member "counters" stats with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> n
      | Some _ -> Alcotest.failf "counter %s not an int" name
      | None -> 0)
  | _ -> Alcotest.fail "metrics carries no counters"

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

(* A socket server in a forked child, with the fault plan [faults] armed
   there; [f] gets the child's pid and the socket path. *)
let fork_server ?(config = Session.default_config) ?workers ?faults tag f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d.sock" tag (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      Option.iter
        (fun plan -> Result.iter Fault.arm (Fault.parse_plan plan))
        faults;
      (try Server.run_socket ~config ?workers ~path () with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      await_socket path;
      f child path

let with_forked_server ?config ?workers tag f =
  fork_server ?config ?workers tag (fun _ path -> f path)

let test_slow_reader_does_not_block_others () =
  (* The head-of-line-blocking regression (satellite of DESIGN.md §15):
     one client floods the server with pipelined requests and never
     reads a response.  Under the historical blocking write_all the
     accept loop wedged inside write(2) to that client, so every other
     connection starved.  The readiness loop keeps serving: the healthy
     client is answered within the test deadline and the staller is
     closed at its outbox cap. *)
  with_test_deadline 60 @@ fun () ->
  let config =
    { Session.default_config with Session.max_outbox_bytes = 32_768 }
  in
  with_forked_server ~config "qr_evloop_stall" @@ fun path ->
  let staller = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close staller with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect staller (Unix.ADDR_UNIX path);
  (* Elicit far more response bytes than kernel buffer + cap can hold.
     The server closes the staller mid-pipeline, so the remaining
     writes fail — that is the success condition, not an error. *)
  let closed_early = ref false in
  (try
     for id = 1 to 4000 do
       let line = route_line ~id () ^ "\n" in
       ignore (Unix.write_substring staller line 0 (String.length line))
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     closed_early := true);
  (* A healthy client on the same server answers while the staller's
     backlog is still queued. *)
  let req id meth = P.request ~id:(Json.Int id) ~meth (Json.Obj []) in
  (match Client.rpc_retry ~path (req 1 "health") with
  | Client.Response envelope -> (
      match P.response_result envelope with
      | Ok health ->
          checkb "healthy client served alongside the staller" true
            (member_exn "status" health = Json.String "ok")
      | Error err -> Alcotest.failf "health errored: %s" err.P.message)
  | Client.Server_error (err, _) ->
      Alcotest.failf "health errored: %s" err.P.message
  | Client.Transport_failure msg -> Alcotest.failf "transport failure: %s" msg);
  (* The staller was (or is about to be) closed at the cap. *)
  let rec await_close tries =
    if tries = 0 then Alcotest.fail "staller never closed at the cap";
    match Client.rpc_retry ~path (req 2 "metrics") with
    | Client.Response envelope -> (
        match P.response_result envelope with
        | Ok metrics ->
            if counter_of metrics "server_slow_client_closes" >= 1 then ()
            else begin
              Unix.sleepf 0.05;
              await_close (tries - 1)
            end
        | Error err -> Alcotest.failf "metrics errored: %s" err.P.message)
    | _ -> Alcotest.fail "metrics request failed"
  in
  await_close 100;
  checkb "staller observed the close or was closed after its burst" true
    (!closed_early
    ||
    (* Drain whatever was flushed before the close; EOF/reset follows. *)
    (Unix.shutdown staller Unix.SHUTDOWN_SEND;
     let chunk = Bytes.create 65536 in
     let rec drain () =
       match Unix.read staller chunk 0 65536 with
       | 0 -> true
       | _ -> drain ()
       | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
     in
     drain ()))

(* ------------------------------------------------------- serving parity *)

(* The serving paths a script can take: [serve_fd] in process over a
   socketpair, and a forked [run_socket] at one and at two workers.
   Every path must give the same replies to the same script. *)
type serving = Fd | Socket of int

let serving_name = function
  | Fd -> "serve_fd"
  | Socket w -> Printf.sprintf "run_socket ~workers:%d" w

let servings = [ Fd; Socket 1; Socket 2 ]

let rec write_fully fd s off =
  if off < String.length s then
    write_fully fd s
      (off + Unix.write_substring fd s off (String.length s - off))

(* Everything the server sends until it closes.  A reset after the
   server's close counts as the end: the replies before it were read. *)
let read_to_eof fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun s -> String.trim s <> "")

(* A reply as (echoed id, "ok" or the wire error code). *)
let reply_summary line =
  let doc = Json.of_string_exn line in
  let id = Json.to_string (Option.value ~default:Json.Null (Json.member "id" doc)) in
  match P.response_result doc with
  | Ok _ -> (id, "ok")
  | Error err -> (id, P.code_to_string err.P.code)

(* Send [payload] in one write, half-close unless told not to, and
   collect the replies until the server closes the connection. *)
let run_payload ?(config = Session.default_config) ?(half_close = true)
    serving payload =
  let exchange fd run_server =
    write_fully fd payload 0;
    if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND;
    run_server ();
    List.map reply_summary (read_to_eof fd)
  in
  match serving with
  | Fd ->
      let server, client =
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      let server_open = ref true in
      let close_server () =
        if !server_open then begin
          server_open := false;
          Unix.close server
        end
      in
      Fun.protect
        ~finally:(fun () ->
          close_server ();
          Unix.close client)
      @@ fun () ->
      exchange client (fun () ->
          Server.serve_fd ~config server;
          close_server ())
  | Socket workers ->
      with_forked_server ~config ~workers "qr_evloop_parity" @@ fun path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      exchange fd ignore

(* [lines], each ended by a newline, through [run_payload]. *)
let run_script ?config ?half_close serving lines =
  run_payload ?config ?half_close serving
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let show_replies replies =
  String.concat "; " (List.map (fun (id, s) -> id ^ ":" ^ s) replies)

let check_replies serving expected replies =
  Alcotest.(check string)
    (serving_name serving ^ " replies")
    (show_replies expected) (show_replies replies)

let oks ids = List.map (fun id -> (string_of_int id, "ok")) ids

let test_parity_pipelined_routes () =
  with_test_deadline 60 @@ fun () ->
  let lines = List.init 10 (fun i -> route_line ~id:(i + 1) ()) in
  List.iter
    (fun serving ->
      check_replies serving (oks (List.init 10 succ)) (run_script serving lines))
    servings

let test_parity_oversized_line () =
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.max_line_bytes = 512 } in
  let lines = [ route_line ~id:1 (); String.make 600 'x'; route_line ~id:3 () ] in
  List.iter
    (fun serving ->
      check_replies serving
        [ ("1", "ok"); ("null", "invalid_request") ]
        (run_script ~config serving lines))
    servings

let test_parity_unterminated_last_line () =
  (* The peer's EOF ends its last line: a request sent without a newline
     before the half-close is answered on every path. *)
  with_test_deadline 60 @@ fun () ->
  let payload =
    route_line ~id:1 () ^ "\n" ^ {|{"id": 2, "method": "health"}|}
  in
  List.iter
    (fun serving ->
      check_replies serving (oks [ 1; 2 ]) (run_payload serving payload))
    servings

let test_parity_success_resets_budget () =
  (* Never two errors in a row, so a budget of 2 never trips: a success
     resets the count on every path. *)
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.error_budget = 2 } in
  let lines = [ "junk"; route_line ~id:2 (); "junk"; route_line ~id:4 (); "junk" ] in
  let junk = ("null", "parse_error") in
  List.iter
    (fun serving ->
      check_replies serving
        [ junk; ("2", "ok"); junk; ("4", "ok"); junk ]
        (run_script ~config serving lines))
    servings

(* One reply larger than [max_outbox_bytes] (an 8x8 reversal's schedule
   is about 3.6 KB) is written on every path, not dropped with its
   connection; so are five such replies to lines pipelined in one write,
   which reach the write queue in the same cycle and together pass the
   cap. *)
let test_parity_reply_over_outbox_cap () =
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.max_outbox_bytes = 1024 } in
  let perm = String.concat "," (List.init 64 (fun v -> string_of_int (63 - v))) in
  let line id =
    Printf.sprintf
      {|{"id": %d, "method": "route", "params": {"grid": {"rows": 8, "cols": 8}, "perm": [%s]}}|}
      id perm
  in
  let five = List.init 5 succ in
  List.iter
    (fun serving ->
      check_replies serving (oks [ 1 ]) (run_script ~config serving [ line 1 ]);
      check_replies serving (oks five)
        (run_script ~config serving (List.map line five)))
    servings

let test_shed_keeps_arrival_order () =
  (* Ten routes pipelined past an in-flight bound of 4.  A shed reply
     waits its turn: ids come back 1-10 on every path, each ok or
     overloaded, and the four admitted first are always ok.  The pool
     sheds by timing; inline, everything past the bound in one read is
     shed. *)
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.max_inflight = 4 } in
  let lines = List.init 10 (fun i -> route_line ~id:(i + 1) ()) in
  List.iter
    (fun serving ->
      let name = serving_name serving in
      let replies = run_script ~config serving lines in
      Alcotest.(check (list string))
        (name ^ ": arrival order")
        (List.init 10 (fun i -> string_of_int (i + 1)))
        (List.map fst replies);
      List.iteri
        (fun i (_, status) ->
          if i < 4 then Alcotest.(check string) (name ^ ": admitted") "ok" status
          else
            checkb (name ^ ": ok or overloaded") true
              (status = "ok" || status = "overloaded"))
        replies;
      if serving = Fd then
        check_replies serving
          (oks [ 1; 2; 3; 4 ]
          @ List.init 6 (fun i -> (string_of_int (i + 5), "overloaded")))
          replies)
    servings

let test_budget_flushes_read_replies () =
  (* The budget trips on the second junk line, with no half-close: the
     server stops reading and closes by itself, but the route already
     read behind the junk is still answered, on every path. *)
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.error_budget = 2 } in
  let lines = [ route_line ~id:1 (); "junk"; "junk"; route_line ~id:4 () ] in
  let junk = ("null", "parse_error") in
  List.iter
    (fun serving ->
      check_replies serving
        [ ("1", "ok"); junk; junk; ("4", "ok") ]
        (run_script ~config ~half_close:false serving lines))
    servings

let batch_line id =
  Printf.sprintf
    {|{"id": %d, "method": "route_batch", "params": {"grid": {"rows": 3, "cols": 3}, "perms": [[8,7,6,5,4,3,2,1,0]], "engine": "local"}}|}
    id

let test_brownout_at_every_worker_count () =
  (* Any live process is past 1 MB of max RSS, so the first memory check
     (about 1 s after start) arms the brownout, and batches are refused
     at one worker as at two. *)
  with_test_deadline 60 @@ fun () ->
  let config = { Session.default_config with Session.max_rss_mb = Some 1 } in
  List.iter
    (fun workers ->
      with_forked_server ~config ~workers "qr_evloop_brownout" @@ fun path ->
      Unix.sleepf 1.5;
      let rec batch_status tries =
        match Client.call ~path (batch_line 1) with
        | Ok reply ->
            let _, status = reply_summary reply in
            if status = "ok" && tries > 0 then begin
              Unix.sleepf 0.25;
              batch_status (tries - 1)
            end
            else status
        | Error msg -> Alcotest.failf "batch call failed: %s" msg
      in
      Alcotest.(check string)
        (Printf.sprintf "workers %d: batch refused" workers)
        "overloaded" (batch_status 10))
    [ 1; 2 ]

(* [f ()] with /dev/null as standard input, so a stdio server that
   failed to refuse its knobs would read end of input, not wait. *)
let with_null_stdin f =
  let saved = Unix.dup Unix.stdin in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Unix.dup2 null Unix.stdin;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stdin;
      Unix.close saved)
    f

let test_bad_supervisor_knobs_refused () =
  (* A non-positive worker count, watchdog, admission, memory, batch,
     queue, line or outbox knob, or breaker threshold or cooldown, or a
     negative cache capacity or error budget, is a config error at every
     worker count and over stdio: [Failure] naming the field, raised
     before the socket is bound or a line is read. *)
  with_test_deadline 30 @@ fun () ->
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qr_evloop_knobs_%d.sock" (Unix.getpid ()))
  in
  let d = Session.default_config in
  let breaker b = { d with Session.breaker = Some b } in
  let refused name field serve =
    match serve () with
    | () -> Alcotest.failf "%s: served" name
    | exception Failure msg ->
        checkb (name ^ ": names the field") true
          (String.length msg >= String.length field
          && String.sub msg 0 (String.length field) = field)
  in
  List.iter
    (fun (field, config) ->
      List.iter
        (fun workers ->
          let name = Printf.sprintf "%s at workers %d" field workers in
          refused name field (fun () ->
              Server.run_socket ~config ~workers ~path ());
          checkb (name ^ ": socket never bound") false (Sys.file_exists path))
        [ 1; 2 ];
      refused (field ^ " over stdio") field (fun () ->
          with_null_stdin (fun () -> Server.run_stdio ~config ())))
    [
      ("hung_request_ms", { d with Session.hung_request_ms = Some 0 });
      ("queue_delay_target_ms", { d with Session.queue_delay_target_ms = Some 0 });
      ("max_rss_mb", { d with Session.max_rss_mb = Some (-1) });
      ("max_batch", { d with Session.max_batch = 0 });
      ("max_inflight", { d with Session.max_inflight = 0 });
      ("max_line_bytes", { d with Session.max_line_bytes = 0 });
      ("max_outbox_bytes", { d with Session.max_outbox_bytes = 0 });
      ("cache_capacity", { d with Session.cache_capacity = -1 });
      ("error_budget", { d with Session.error_budget = -1 });
      ( "breaker.threshold",
        breaker { Breaker.default_config with Breaker.threshold = 0 } );
      ( "breaker.cooldown_ns",
        breaker { Breaker.default_config with Breaker.cooldown_ns = 0L } );
    ];
  List.iter
    (fun workers ->
      let name = Printf.sprintf "workers %d" workers in
      refused name "workers" (fun () -> Server.run_socket ~workers ~path ());
      checkb (name ^ ": socket never bound") false (Sys.file_exists path))
    [ 0; -1 ]

(* ------------------------------------------------------------ idle server *)

let test_idle_server_sleeps () =
  (* An idle server arms no timer, so it sleeps in poll: under one
     wakeup per second over a 3 s quiet window, net of the wakeups the
     metrics probe itself costs, at one worker and with the pool. *)
  with_test_deadline 60 @@ fun () ->
  List.iter
    (fun workers ->
      with_forked_server ~workers "qr_evloop_idle" @@ fun path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let replies = Unix.in_channel_of_descr fd in
      let rpc line =
        write_fully fd (line ^ "\n") 0;
        match P.response_result (Json.of_string_exn (input_line replies)) with
        | Ok result -> result
        | Error err -> Alcotest.failf "workers %d: %s" workers err.P.message
      in
      for id = 1 to 10 do
        ignore (rpc (route_line ~id ()))
      done;
      let wakeups () =
        counter_of (rpc {|{"id": 0, "method": "metrics"}|}) "server_loop_wakeups"
      in
      let w_a = wakeups () in
      let w_b = wakeups () in
      let probe_cost = w_b - w_a in
      let window_s = 3.0 in
      Unix.sleepf window_s;
      let w_c = wakeups () in
      let per_s =
        Float.max 0. (float_of_int (w_c - w_b - probe_cost) /. window_s)
      in
      checkb (Printf.sprintf "workers %d: wakeups counted" workers) true
        (w_a > 0);
      checkb
        (Printf.sprintf "workers %d: %.2f idle wakeups/s (probe costs %d)"
           workers per_s probe_cost)
        true (per_s < 1.0))
    [ 1; 2 ]

let test_sigterm_between_cycles () =
  (* A [server.poll] delay holds every cycle just short of its kernel
     wait, so a SIGTERM sent right after a reply lands between the
     loop's stop check and its poll.  The server must shut down anyway
     (its socket file goes), not sleep in poll until the next
     connection. *)
  with_test_deadline 30 @@ fun () ->
  List.iter
    (fun workers ->
      fork_server ~workers ~faults:"server.poll=delay(300)" "qr_evloop_sigterm"
      @@ fun child path ->
      ignore (Client.call ~path {|{"id": 1, "method": "health"}|});
      Unix.kill child Sys.sigterm;
      let rec gone tries =
        (not (Sys.file_exists path))
        || tries > 0 && (Unix.sleepf 0.05; gone (tries - 1))
      in
      checkb (Printf.sprintf "workers %d: shuts down on SIGTERM" workers) true
        (gone 60))
    [ 1; 2 ]

(* ------------------------------------------------- many-connection scaling *)

let test_beyond_select_capacity () =
  (* The poll loop serves more concurrent connections than FD_SETSIZE
     allows — the scenario that killed the select loop with EINVAL.
     Gated on the fd limit: a constrained environment skips rather than
     fails. *)
  with_test_deadline 120 @@ fun () ->
  with_forked_server "qr_evloop_many" @@ fun path ->
  let conns = ref [] in
  let finally () =
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      !conns
  in
  Fun.protect ~finally @@ fun () ->
  let target = 1100 in
  let opened =
    try
      for _ = 1 to target do
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        conns := fd :: !conns;
        Unix.connect fd (Unix.ADDR_UNIX path)
      done;
      target
    with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      List.length !conns
  in
  if opened < target then
    (* fd limit too low to exercise the scenario; connections close in
       [finally], the server just drains. *)
    checkb "skipped: fd limit below the 1100-connection target" true true
  else begin
    (* Every connection is idle-open; the newest one still gets
       answered — the server is past FD_SETSIZE and serving. *)
    let fd = List.hd !conns in
    let line = route_line ~id:9999 () ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let buf = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec read_line () =
      if String.contains (Buffer.contents buf) '\n' then ()
      else
        match Unix.read fd chunk 0 4096 with
        | 0 -> Alcotest.fail "server closed the 1100th connection"
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            read_line ()
    in
    read_line ();
    let data = Buffer.contents buf in
    let response = String.sub data 0 (String.index data '\n') in
    match P.response_result (Json.of_string_exn response) with
    | Ok _ -> checkb "served beyond FD_SETSIZE" true true
    | Error err ->
        Alcotest.failf "route failed at 1100 connections: %s" err.P.message
  end

(* -------------------------------------------------------------------- run *)

let () =
  Alcotest.run "qr_evloop"
    [
      ( "timers",
        [
          Alcotest.test_case "due order" `Quick test_timer_ordering;
          Alcotest.test_case "periodic coalescing" `Quick test_timer_coalescing;
          Alcotest.test_case "wakeup accounting" `Quick test_wakeup_accounting;
        ] );
      ( "interest",
        [
          Alcotest.test_case "readable+writable on one fd" `Quick
            test_readable_and_writable;
        ] );
      ( "write_queue",
        [
          Alcotest.test_case "round trip" `Quick test_write_queue_round_trip;
          Alcotest.test_case "byte cap" `Quick test_write_queue_cap;
          Alcotest.test_case "oversized first line" `Quick
            test_write_queue_oversized_first_line;
          Alcotest.test_case "peer gone" `Quick test_write_queue_peer_gone;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "slow client closed at cap" `Slow
            test_slow_client_closed_at_cap;
          Alcotest.test_case "slow reader does not block others" `Slow
            test_slow_reader_does_not_block_others;
        ] );
      ( "idle",
        [
          Alcotest.test_case "idle server sleeps" `Slow test_idle_server_sleeps;
          Alcotest.test_case "SIGTERM between cycles" `Slow
            test_sigterm_between_cycles;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "beyond FD_SETSIZE" `Slow
            test_beyond_select_capacity;
        ] );
      ( "parity",
        [
          Alcotest.test_case "pipelined routes" `Slow
            test_parity_pipelined_routes;
          Alcotest.test_case "oversized line" `Slow test_parity_oversized_line;
          Alcotest.test_case "unterminated last line" `Slow
            test_parity_unterminated_last_line;
          Alcotest.test_case "success resets the budget" `Slow
            test_parity_success_resets_budget;
          Alcotest.test_case "reply over the outbox cap" `Slow
            test_parity_reply_over_outbox_cap;
          Alcotest.test_case "shed keeps arrival order" `Slow
            test_shed_keeps_arrival_order;
          Alcotest.test_case "budget flushes read replies" `Slow
            test_budget_flushes_read_replies;
          Alcotest.test_case "brownout at every worker count" `Slow
            test_brownout_at_every_worker_count;
          Alcotest.test_case "bad supervisor knobs refused" `Quick
            test_bad_supervisor_knobs_refused;
        ] );
    ]
