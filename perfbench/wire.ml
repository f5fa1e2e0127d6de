(* The socket side of the serve workloads: spawn a real `qroute serve
   --socket` process, connect to it, and drive it with a closed loop over a
   few persistent connections from this one thread. *)

module Json = Qr_obs.Json
module P = Qr_server.Protocol

type server = { pid : int; path : string }

let live : server list ref = ref []

let stop server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] server.pid) with Unix.Unix_error _ -> ());
  (try Unix.unlink server.path with Unix.Unix_error _ -> ());
  live := List.filter (fun s -> s.pid <> server.pid) !live

let () = at_exit (fun () -> List.iter stop !live)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start the server with its stderr (the access log) sent to [log], and
   return once its socket accepts a connection. *)
let spawn ~qroute ~workers ~path ~log =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process qroute
      [| qroute; "serve"; "--socket"; path; "--workers"; string_of_int workers |]
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  let server = { pid; path } in
  live := server :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (fun s -> s.pid <> pid) !live;
        failwith ("qroute serve exited during start-up; see " ^ log));
    match connect path with
    | Some fd -> Unix.close fd
    | None ->
        if Unix.gettimeofday () > deadline then
          failwith "qroute serve never opened its socket";
        Unix.sleepf 0.005;
        await ()
  in
  await ();
  server

(* A persistent connection with its partial-line input buffer. *)
type conn = { fd : Unix.file_descr; inbox : Buffer.t; chunk : Bytes.t }

let open_conn path =
  match connect path with
  | Some fd -> { fd; inbox = Buffer.create 65536; chunk = Bytes.create 65536 }
  | None -> failwith ("cannot connect to " ^ path)

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let line = line ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd line off (len - off))
  in
  go 0

(* Read what is available; return the first complete line, if any. *)
let take_line c =
  let data = Buffer.contents c.inbox in
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.inbox;
      Buffer.add_substring c.inbox data (i + 1) (String.length data - i - 1);
      Some (String.sub data 0 i)

let read_some c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "server closed a connection"
  | k -> Buffer.add_subbytes c.inbox c.chunk 0 k

let rec recv c =
  match take_line c with
  | Some line -> line
  | None ->
      read_some c;
      recv c

let rpc c line =
  send c line;
  recv c

(* The [stats] RPC, decoded into the counters the benchmark reads. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  requests : int;
  wakeups : int;
}

let stats c =
  let reply = Json.of_string_exn (rpc c {|{"id":0,"method":"stats"}|}) in
  let result =
    match P.response_result reply with
    | Ok r -> r
    | Error e -> failwith ("stats: " ^ e.P.message)
  in
  let path keys =
    List.fold_left
      (fun j k -> Option.bind j (Json.member k))
      (Some result) keys
  in
  let int keys = Option.value ~default:0 (Option.bind (path keys) Json.get_int) in
  {
    hits = int [ "plan_cache"; "hits" ];
    misses = int [ "plan_cache"; "misses" ];
    evictions = int [ "plan_cache"; "evictions" ];
    requests = int [ "metrics"; "counters"; "server_requests" ];
    wakeups = int [ "metrics"; "counters"; "server_loop_wakeups" ];
  }

(* Closed loop: every idle connection gets its next operation from
   [next] (which returns the request line and a value handed back on
   completion) until [until_ns]; then the loop waits for the operations in
   flight.
   [on_done op line ~sent_ns ~recv_ns] sees every response.  About every
   [pause_every_ns] the loop lets every connection drain and calls
   [on_pause] with nothing in flight.  Returns the nanoseconds spent in
   [on_pause]. *)
let closed_loop conns ~until_ns ~pause_every_ns ~on_pause ~next ~on_done =
  let inflight = Array.make (Array.length conns) None in
  let paused_ns = ref 0 in
  let next_pause = ref (Spans.now_ns () + pause_every_ns) in
  let more () = Spans.now_ns () < until_ns in
  let issue i =
    let op, line = next () in
    let sent_ns = Spans.now_ns () in
    send conns.(i) line;
    inflight.(i) <- Some (op, sent_ns)
  in
  let busy () = Array.exists Option.is_some inflight in
  let issue_all () = Array.iteri (fun i _ -> issue i) conns in
  issue_all ();
  while busy () do
    let fds =
      List.filter_map
        (fun i -> if Option.is_some inflight.(i) then Some conns.(i).fd else None)
        (List.init (Array.length conns) Fun.id)
    in
    let ready, _, _ =
      try Unix.select fds [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i c ->
        if List.mem c.fd ready then begin
          read_some c;
          match (take_line c, inflight.(i)) with
          | Some line, Some (op, sent_ns) ->
              let recv_ns = Spans.now_ns () in
              inflight.(i) <- None;
              on_done op line ~sent_ns ~recv_ns;
              if more () && Spans.now_ns () < !next_pause then issue i
          | _ -> ()
        end)
      conns;
    if (not (busy ())) && more () then begin
      let t0 = Spans.now_ns () in
      on_pause ();
      let t1 = Spans.now_ns () in
      paused_ns := !paused_ns + (t1 - t0);
      next_pause := t1 + pause_every_ns;
      issue_all ()
    end
  done;
  !paused_ns
