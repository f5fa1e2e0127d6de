module Hopcroft_karp = Qr_bipartite.Hopcroft_karp
module Bottleneck = Qr_bipartite.Bottleneck
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type discovery = Doubling | Fixed_band of int | Whole

type assignment = Mcbbm | Arbitrary

let c_band_rounds = Metrics.counter "band_search_rounds"
let c_band_windows = Metrics.counter "band_search_iterations"
let c_matchings = Metrics.counter "matchings_extracted"
let h_band_width = Metrics.histogram "band_width"

let discovery_name = function
  | Doubling -> "doubling"
  | Fixed_band h -> Printf.sprintf "fixed_band:%d" h
  | Whole -> "whole"

let delta cg matching r =
  Array.fold_left
    (fun acc edge ->
      acc
      + abs (Column_graph.src_row cg edge - r)
      + abs (Column_graph.dst_row cg edge - r))
    0 matching

(* Δ(M, r) = Σ_x h(x)·|x − r| over the histogram h of the matching's 2n
   row labels; stepping r to r + 1 adds one per label at or below r and
   subtracts one per label above it. *)
let deltas cg matching =
  let m = Column_graph.rows cg in
  let hist = Array.make m 0 in
  let at_zero = ref 0 in
  Array.iter
    (fun edge ->
      let i = Column_graph.src_row cg edge and i' = Column_graph.dst_row cg edge in
      hist.(i) <- hist.(i) + 1;
      hist.(i') <- hist.(i') + 1;
      at_zero := !at_zero + i + i')
    matching;
  let labels = 2 * Array.length matching in
  let out = Array.make m !at_zero in
  let below = ref 0 in
  for r = 0 to m - 2 do
    below := !below + hist.(r);
    out.(r + 1) <- out.(r) + !below - (labels - !below)
  done;
  out

(* Scratch of one band search, all flat: the live edges, the band being
   drained as (edge id, source column, destination column) entries, and
   the matchings found so far in discovery order. *)
type search = {
  cg : Column_graph.t;
  hk : Hopcroft_karp.workspace;
  live : bool array;
  ids : int array;
  src : int array;
  dst : int array;
  sides : int array;  (* per column: bit 0 a band source, bit 1 a destination *)
  left_match : int array;
  right_match : int array;
  found : int array array;
  mutable count : int;
}

(* A perfect matching of the band needs an edge at every column on both
   sides; most narrow windows fail this before any matching is run. *)
let covers_columns s ne =
  let n = Column_graph.cols s.cg in
  Array.fill s.sides 0 n 0;
  for k = 0 to ne - 1 do
    s.sides.(s.src.(k)) <- s.sides.(s.src.(k)) lor 1;
    s.sides.(s.dst.(k)) <- s.sides.(s.dst.(k)) lor 2
  done;
  Array.for_all (fun bits -> bits = 3) s.sides

(* Extract perfect matchings from the live edges with source row in
   [lo..hi] until none remains; kill the edges of each matching found.
   The band is scanned once: after an extraction only the matching's
   edges have died, so dropping them in place, in order, leaves exactly
   what a rescan would. *)
let drain_band s ~lo ~hi =
  let n = Column_graph.cols s.cg in
  let cancel = Cancel.ambient () in
  let ne =
    ref
      (Column_graph.scan_band s.cg ~live:s.live ~lo ~hi ~ids:s.ids ~src:s.src
         ~dst:s.dst)
  in
  let continue_ = ref true in
  while !continue_ do
    Cancel.poll cancel;
    if
      !ne < n
      || (not (covers_columns s !ne))
      || Hopcroft_karp.max_matching s.hk ~nl:n ~nr:n ~ne:!ne ~src:s.src
           ~dst:s.dst ~left_match:s.left_match ~right_match:s.right_match
         < n
    then continue_ := false
    else begin
      let matching = Array.make n 0 in
      for l = 0 to n - 1 do
        let e = s.ids.(s.left_match.(l)) in
        matching.(l) <- e;
        s.live.(e) <- false
      done;
      let kept = ref 0 in
      for k = 0 to !ne - 1 do
        let e = s.ids.(k) in
        if s.live.(e) then begin
          s.ids.(!kept) <- e;
          s.src.(!kept) <- s.src.(k);
          s.dst.(!kept) <- s.dst.(k);
          incr kept
        end
      done;
      ne := !kept;
      Metrics.incr c_matchings;
      Metrics.observe h_band_width (float_of_int (hi - lo + 1));
      s.found.(s.count) <- matching;
      s.count <- s.count + 1
    end
  done

let discover_doubling ?(initial_width = 0) cg =
  let m = Column_graph.rows cg and n = Column_graph.cols cg in
  let ne = Column_graph.num_edges cg in
  let s =
    {
      cg;
      hk = Hopcroft_karp.workspace ();
      live = Array.make ne true;
      ids = Array.make ne 0;
      src = Array.make ne 0;
      dst = Array.make ne 0;
      sides = Array.make n 0;
      left_match = Array.make n (-1);
      right_match = Array.make n (-1);
      found = Array.make m [||];
      count = 0;
    }
  in
  let cancel = Cancel.ambient () in
  let w = ref initial_width in
  while s.count < m do
    Metrics.incr c_band_rounds;
    let r0 = ref 0 in
    while !r0 < m && s.count < m do
      Metrics.incr c_band_windows;
      Cancel.poll cancel;
      let hi = min (!r0 + !w) (m - 1) in
      drain_band s ~lo:!r0 ~hi;
      r0 := !r0 + !w + 1
    done;
    w := if !w = 0 then 1 else 2 * !w
  done;
  (* Narrow-band matchings first: they carry the locality. *)
  Array.to_list s.found

let discover_matchings discovery cg =
  match discovery with
  | Doubling -> discover_doubling cg
  | Fixed_band h ->
      if h <= 0 then invalid_arg "Local_grid_route: band height must be positive";
      discover_doubling ~initial_width:(h - 1) cg
  | Whole -> discover_doubling ~initial_width:(Column_graph.rows cg - 1) cg

let assign_rows assignment cg matchings =
  let m = Column_graph.rows cg in
  match assignment with
  | Arbitrary -> Array.init m (fun k -> k)
  | Mcbbm ->
      let weights = Array.make (List.length matchings) [||] in
      List.iteri (fun k matching -> weights.(k) <- deltas cg matching) matchings;
      let solution = Bottleneck.solve_complete ~weights in
      let assigned = solution.left_match in
      (* A complete bipartite graph always has a perfect matching. *)
      Array.iter (fun r -> assert (r >= 0)) assigned;
      assigned

let sigmas_of_graph ~discovery ~assignment cg =
  let matchings =
    Trace.with_span "band_search"
      ~attrs:[ ("discovery", Trace.String (discovery_name discovery)) ]
      (fun () -> discover_matchings discovery cg)
  in
  let assigned_rows =
    Trace.with_span "mcbbm_assign" (fun () -> assign_rows assignment cg matchings)
  in
  Grid_route.sigmas_of_assignment cg ~matchings ~assigned_rows

let sigmas ?(discovery = Doubling) ?(assignment = Mcbbm) grid pi =
  Trace.with_span "column_graph_build" (fun () -> Column_graph.build grid pi)
  |> sigmas_of_graph ~discovery ~assignment

(* One orientation: its column graph built once, Algorithm 2's sigmas
   drawn from it, and GridRoute's rounds counted on it. *)
let plan ~discovery ~assignment build =
  let cg = Trace.with_span "column_graph_build" build in
  Grid_route.plan_rounds cg (sigmas_of_graph ~discovery ~assignment cg)

let route ?(discovery = Doubling) ?(assignment = Mcbbm) grid pi =
  Grid_route.emit
    (plan ~discovery ~assignment (fun () -> Column_graph.build grid pi))

let route_best_orientation ?(discovery = Doubling) ?(assignment = Mcbbm) grid pi
    =
  let plan = plan ~discovery ~assignment in
  let direct =
    Trace.with_span "orientation_direct" (fun () ->
        plan (fun () -> Column_graph.build grid pi))
  in
  let transposed =
    Trace.with_span "orientation_transposed" (fun () ->
        (* Routed from the shape alone, with no transposed grid or
           permutation built. *)
        plan (fun () -> Column_graph.build_transposed grid pi))
  in
  (* Both depths are known before any layer is written, so only the
     shallower orientation is materialized; a tie keeps the direct one. *)
  if Grid_route.depth transposed < Grid_route.depth direct then
    Grid_route.emit ~transposed:true transposed
  else Grid_route.emit direct
