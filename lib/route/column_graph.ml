module Grid = Qr_graph.Grid

type t = {
  rows : int;
  cols : int;
  src_col : int array;
  dst_col : int array;
  src_row : int array;
  dst_row : int array;
}

let make ~rows ~cols n =
  let fresh () = Array.make n 0 in
  {
    rows;
    cols;
    src_col = fresh ();
    dst_col = fresh ();
    src_row = fresh ();
    dst_row = fresh ();
  }

let check_size name grid pi =
  let n = Grid.size grid in
  if Array.length pi <> n then invalid_arg (name ^ ": size mismatch");
  n

let image name n pi v =
  let w = pi.(v) in
  if w < 0 || w >= n then invalid_arg (name ^ ": image out of range");
  w

let build grid pi =
  let n = check_size "Column_graph.build" grid pi in
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let t = make ~rows ~cols n in
  for v = 0 to n - 1 do
    let w = image "Column_graph.build" n pi v in
    t.src_row.(v) <- v / cols;
    t.src_col.(v) <- v mod cols;
    t.dst_row.(v) <- w / cols;
    t.dst_col.(v) <- w mod cols
  done;
  t

(* Vertex (r, c) of the grid is vertex (c, r) of its transpose, at flat
   index c * rows + r there; its image moves the same way. *)
let build_transposed grid pi =
  let n = check_size "Column_graph.build_transposed" grid pi in
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let t = make ~rows:cols ~cols:rows n in
  for v = 0 to n - 1 do
    let w = image "Column_graph.build_transposed" n pi v in
    let e = ((v mod cols) * rows) + (v / cols) in
    t.src_row.(e) <- v mod cols;
    t.src_col.(e) <- v / cols;
    t.dst_row.(e) <- w mod cols;
    t.dst_col.(e) <- w / cols
  done;
  t

let rows t = t.rows

let cols t = t.cols

let num_edges t = Array.length t.src_col

let src_col t e = t.src_col.(e)

let dst_col t e = t.dst_col.(e)

let src_row t e = t.src_row.(e)

let dst_row t e = t.dst_row.(e)

(* Edge ids are row-major source vertices, so the band's edges are one
   contiguous id range. *)
let scan_band t ~live ~lo ~hi ~ids ~src ~dst =
  if lo < 0 || hi >= t.rows || lo > hi then invalid_arg "Column_graph.scan_band";
  let count = ref 0 in
  for e = lo * t.cols to ((hi + 1) * t.cols) - 1 do
    if live.(e) then begin
      let k = !count in
      ids.(k) <- e;
      src.(k) <- t.src_col.(e);
      dst.(k) <- t.dst_col.(e);
      count := k + 1
    end
  done;
  !count
