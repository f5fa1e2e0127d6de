(* In-memory span recorder for the traced run.

   A span is a name, a start and an end on the monotonic clock, the span
   that was open when it started (its parent), the operation it belongs to
   and the minor-heap words allocated while it was open.  Spans are kept in
   memory and written out once, when the run ends.  The recorder is for the
   benchmark's own domain only: work fanned out to other domains is timed
   by the caller and recorded afterwards with [record]. *)

type span = {
  name : string;
  op : int;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start_ns : int;
  mutable stop_ns : int;
  mutable words : float;
}

let now_ns () = Int64.to_int (Qr_util.Timer.now_ns ())

let spans : span array ref = ref [||]
let count = ref 0
let open_stack : int list ref = ref []
let current_op = ref 0
let enabled = ref false

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let parent () = match !open_stack with [] -> -1 | p :: _ -> p

let with_span name f =
  if not !enabled then f ()
  else begin
    let idx =
      push
        {
          name;
          op = !current_op;
          parent = parent ();
          start_ns = now_ns ();
          stop_ns = 0;
          words = 0.;
        }
    in
    open_stack := idx :: !open_stack;
    let w0 = Gc.minor_words () in
    let finish () =
      let w1 = Gc.minor_words () in
      let s = !spans.(idx) in
      s.stop_ns <- now_ns ();
      s.words <- w1 -. w0;
      open_stack := List.tl !open_stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span measured elsewhere (on another domain), attached under the span
   open now. *)
let record name ~start_ns ~stop_ns ~words =
  if !enabled then
    ignore
      (push
         { name; op = !current_op; parent = parent (); start_ns; stop_ns; words })

let duration s = s.stop_ns - s.start_ns

type totals = {
  mutable n : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable self_words : float;
}

(* Per name: span count, total duration, and self time and self words — a
   span's own figure minus what its direct children cover. *)
let totals () =
  let child_ns = Array.make !count 0 and child_words = Array.make !count 0. in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then begin
      child_ns.(s.parent) <- child_ns.(s.parent) + duration s;
      child_words.(s.parent) <- child_words.(s.parent) +. s.words
    end
  done;
  let table = Hashtbl.create 32 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    let t =
      match Hashtbl.find_opt table s.name with
      | Some t -> t
      | None ->
          let t = { n = 0; total_ns = 0; self_ns = 0; self_words = 0. } in
          Hashtbl.add table s.name t;
          t
    in
    t.n <- t.n + 1;
    t.total_ns <- t.total_ns + duration s;
    t.self_ns <- t.self_ns + duration s - child_ns.(i);
    t.self_words <- t.self_words +. s.words -. child_words.(i)
  done;
  table

let write_jsonl path =
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to !count - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}\n"
          i s.name s.op s.parent s.start_ns s.stop_ns s.words
      done)
