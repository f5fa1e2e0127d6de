module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Trace = Qr_obs.Trace
module Cancel = Qr_util.Cancel

type sigmas = int array array

let sigmas_of_assignment cg ~matchings ~assigned_rows =
  let m = Column_graph.rows cg and n = Column_graph.cols cg in
  if not (Perm.is_permutation assigned_rows) || Array.length assigned_rows <> m
  then invalid_arg "Grid_route.sigmas_of_assignment: bad row assignment";
  if List.length matchings <> m then
    invalid_arg "Grid_route.sigmas_of_assignment: need one matching per row";
  let sigmas = Array.make n [||] in
  for j = 0 to n - 1 do
    sigmas.(j) <- Array.make m (-1)
  done;
  List.iteri
    (fun k matching ->
      let row = assigned_rows.(k) in
      Array.iteri
        (fun j edge ->
          let i = Column_graph.src_row cg edge in
          if Column_graph.src_col cg edge <> j then
            invalid_arg "Grid_route.sigmas_of_assignment: edge/column mismatch";
          if sigmas.(j).(i) <> -1 then
            invalid_arg "Grid_route.sigmas_of_assignment: qubit covered twice";
          sigmas.(j).(i) <- row)
        matching)
    matchings;
  Array.iter
    (fun sigma ->
      if not (Perm.is_permutation sigma) then
        invalid_arg "Grid_route.sigmas_of_assignment: sigma not a permutation")
    sigmas;
  sigmas

(* The GridRoute precondition against a column graph's destinations. *)
let sigmas_fit cg sigmas =
  let m = Column_graph.rows cg and n = Column_graph.cols cg in
  Array.length sigmas = n
  && Array.for_all (fun s -> Array.length s = m && Perm.is_permutation s) sigmas
  &&
  (* After round 1 the qubit from (i,j) sits at (sigmas.(j).(i), j); its
     destination column must be unique within that row. *)
  let seen = Array.make (m * n) false in
  let ok = ref true in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let cell = (sigmas.(j).(i) * n) + Column_graph.dst_col cg ((i * n) + j) in
      if seen.(cell) then ok := false else seen.(cell) <- true
    done
  done;
  !ok

let check_sigmas grid pi sigmas = sigmas_fit (Column_graph.build grid pi) sigmas

(* One round, planned: every line's destinations and starting parity, and
   the swap count of each merged layer.  A round's layer [t] is the union
   of every line's [t]-th non-empty odd–even round. *)
type phase = {
  lines : int;  (* columns in rounds 1 and 3, rows in round 2 *)
  len : int;  (* positions per line *)
  dests : int array;  (* line l's destinations, at l * len .. *)
  parity : int array;  (* starting parity per line *)
  sizes : int array;  (* swaps per merged layer *)
  mutable depth : int;
}

type rounds = { rows : int; cols : int; phases : phase array }

let depth r = Array.fold_left (fun acc ph -> acc + ph.depth) 0 r.phases

(* Each line's parity is Path_route's choice, and its swap counts add into
   the merged layer sizes; a merged layer holds a swap exactly while some
   line is that deep. *)
let plan_phase ph ~tokens ~even ~odd =
  for line = 0 to ph.lines - 1 do
    ph.parity.(line) <-
      Path_route.min_parity ph.dests (line * ph.len) ph.len ~tokens ~even ~odd
        ~sizes:ph.sizes
  done;
  while ph.sizes.(ph.depth) > 0 do
    ph.depth <- ph.depth + 1
  done

(* Apply a planned round to [token_at]: each line realizes its
   destinations.  Position p of a line is vertex
   line * line_stride + p * pos_stride. *)
let move_tokens ph token_at ~line_stride ~pos_stride tmp =
  for line = 0 to ph.lines - 1 do
    let off = line * ph.len and base = line * line_stride in
    for p = 0 to ph.len - 1 do
      tmp.(ph.dests.(off + p)) <- token_at.(base + (p * pos_stride))
    done;
    for p = 0 to ph.len - 1 do
      token_at.(base + (p * pos_stride)) <- tmp.(p)
    done
  done

let plan_rounds cg sigmas =
  if not (sigmas_fit cg sigmas) then
    invalid_arg "Grid_route.route_with_sigmas: invalid sigmas";
  (* Rounds are few but each scans the whole grid; one checkpoint per
     round bounds the overshoot past an expired deadline. *)
  let cancel = Cancel.ambient () in
  Cancel.poll cancel;
  let m = Column_graph.rows cg and n = Column_graph.cols cg in
  let size = m * n and k = max m n in
  let tokens = Array.make k 0 and tmp = Array.make k 0 in
  let even = Array.make (k + 1) 0 and odd = Array.make (k + 1) 0 in
  let token_at = Array.init size (fun v -> v) in
  let phase ~lines ~len ~line_stride ~pos_stride fill_dests =
    let ph =
      {
        lines;
        len;
        dests = Array.make size 0;
        parity = Array.make lines 0;
        sizes = Array.make (len + 1) 0;
        depth = 0;
      }
    in
    fill_dests ph.dests;
    plan_phase ph ~tokens ~even ~odd;
    move_tokens ph token_at ~line_stride ~pos_stride tmp;
    ph
  in
  (* Round 1: columns, qubit at (i,j) goes to row sigmas.(j).(i). *)
  let round1 =
    Trace.with_span "round1_columns" (fun () ->
        phase ~lines:n ~len:m ~line_stride:1 ~pos_stride:n (fun dests ->
            Array.iteri (fun j sigma -> Array.blit sigma 0 dests (j * m) m) sigmas))
  in
  (* Round 2: rows, to destination columns. *)
  let round2 =
    Trace.with_span "round2_rows" (fun () ->
        Cancel.poll cancel;
        phase ~lines:m ~len:n ~line_stride:n ~pos_stride:1 (fun dests ->
            for v = 0 to size - 1 do
              dests.(v) <- Column_graph.dst_col cg token_at.(v)
            done))
  in
  (* Round 3: columns, to destination rows. *)
  let round3 =
    Trace.with_span "round3_columns" (fun () ->
        Cancel.poll cancel;
        phase ~lines:n ~len:m ~line_stride:1 ~pos_stride:n (fun dests ->
            for j = 0 to n - 1 do
              for i = 0 to m - 1 do
                let v = token_at.((i * n) + j) in
                assert (Column_graph.dst_col cg v = j);
                dests.((j * m) + i) <- Column_graph.dst_row cg v
              done
            done))
  in
  (* Every token must have reached its destination. *)
  for v = 0 to size - 1 do
    assert (token_at.((Column_graph.dst_row cg v * n) + Column_graph.dst_col cg v) = v)
  done;
  { rows = m; cols = n; phases = [| round1; round2; round3 |] }

(* Replay every line from its chosen parity, writing each swap's two
   endpoints straight into its merged layer's slots of [ends].  Layers
   are filled from the end ([fill.(t)] starts one past layer [t]'s last
   slot and steps down), so a layer lists lines, and positions within a
   line, in descending order.  The phase's layers start at [first].
   Position p of a line is output vertex line * vertex_line + p *
   vertex_pos. *)
let emit_phase ph ~first ~vertex_line ~vertex_pos tokens ends fill =
  for line = 0 to ph.lines - 1 do
    Path_route.replay ph.dests (line * ph.len) ph.len ph.parity.(line)
      ~base:(line * vertex_line) ~stride:vertex_pos ~first ~step:(-1) tokens
      ends fill
  done

let emit ?(transposed = false) r =
  Trace.with_span "schedule_emit" @@ fun () ->
  (* Output vertex of routed (row, col): row * rs + col * cs. *)
  let rs, cs = if transposed then (1, r.rows) else (r.cols, 1) in
  let cancel = Cancel.ambient () in
  let tokens = Array.make (max r.rows r.cols) 0 in
  (* The planned layer sizes give every layer's offsets up front, so the
     endpoints go into one exactly sized array. *)
  let depth = depth r in
  let starts = Array.make (depth + 1) 0 in
  let k = ref 0 in
  Array.iter
    (fun ph ->
      for t = 0 to ph.depth - 1 do
        starts.(!k + 1) <- starts.(!k) + ph.sizes.(t);
        incr k
      done)
    r.phases;
  let ends = Array.make (2 * starts.(depth)) 0 in
  let fill = Array.sub starts 1 depth in
  let phase k ~first ~vertex_line ~vertex_pos =
    Cancel.poll cancel;
    emit_phase r.phases.(k) ~first ~vertex_line ~vertex_pos tokens ends fill
  in
  let depth1 = r.phases.(0).depth in
  phase 0 ~first:0 ~vertex_line:cs ~vertex_pos:rs;
  phase 1 ~first:depth1 ~vertex_line:rs ~vertex_pos:cs;
  phase 2 ~first:(depth1 + r.phases.(1).depth) ~vertex_line:cs ~vertex_pos:rs;
  (* Every layer is filled exactly: its fill pointer is back at its
     start. *)
  Array.iteri (fun t left -> assert (left = starts.(t))) fill;
  Schedule.of_flat ~ends ~starts

let route_with_sigmas grid pi sigmas =
  emit (plan_rounds (Column_graph.build grid pi) sigmas)

let round_depths grid pi sigmas =
  let r = plan_rounds (Column_graph.build grid pi) sigmas in
  (r.phases.(0).depth, r.phases.(1).depth, r.phases.(2).depth)
