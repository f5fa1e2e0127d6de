type t = {
  fd : Unix.file_descr;
  fault : string option;
  cap_bytes : int;
  chunks : string Queue.t;
  mutable head_off : int;  (* bytes of [Queue.peek chunks] already written *)
  mutable bytes : int;  (* total queued bytes, head offset discounted *)
}

let create ?fault ~cap_bytes fd =
  if cap_bytes < 1 then invalid_arg "Write_queue.create: cap_bytes < 1";
  { fd; fault; cap_bytes; chunks = Queue.create (); head_off = 0; bytes = 0 }

let pending_bytes t = t.bytes

let is_empty t = t.bytes = 0

(* An empty queue takes any line, so a reply larger than the cap is
   written, not mistaken for a stalled reader; the cap bounds what
   queues behind it. *)
let enqueue t line =
  let chunk_len = String.length line + 1 in
  if t.bytes > 0 && t.bytes + chunk_len > t.cap_bytes then `Overflow
  else begin
    Queue.add (line ^ "\n") t.chunks;
    t.bytes <- t.bytes + chunk_len;
    `Ok
  end

let rec flush t =
  if Queue.is_empty t.chunks then `Idle
  else
    let head = Queue.peek t.chunks in
    let len = String.length head - t.head_off in
    match Io_util.write_once ?fault:t.fault t.fd head ~pos:t.head_off ~len with
    | Io_util.Wrote n ->
        t.bytes <- t.bytes - n;
        if n >= len then begin
          ignore (Queue.pop t.chunks);
          t.head_off <- 0
        end
        else t.head_off <- t.head_off + n;
        flush t
    | Io_util.Write_blocked -> `Pending
    | Io_util.Write_closed -> `Closed
