module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics

type edge = { l : int; r : int; weight : int }

let c_probes = Metrics.counter "bottleneck_thresholds_probed"

type solution = {
  bottleneck : int;
  pairs : (int * int) list;
  left_match : int array;
}

let matching_size ~nl ~nr kept =
  let edges = Array.of_list (List.map (fun e -> (e.l, e.r)) kept) in
  Hopcroft_karp.solve ~nl ~nr ~edges

let solve ~nl ~nr edge_list =
  Trace.with_span "bottleneck_solve" @@ fun () ->
  List.iter
    (fun e ->
      if e.l < 0 || e.l >= nl || e.r < 0 || e.r >= nr then
        invalid_arg "Bottleneck.solve: endpoint out of range")
    edge_list;
  let full = matching_size ~nl ~nr edge_list in
  let target = full.size in
  if target = 0 then { bottleneck = min_int; pairs = []; left_match = Array.make nl (-1) }
  else begin
    let weights =
      List.sort_uniq compare (List.map (fun e -> e.weight) edge_list)
    in
    let weight_array = Array.of_list weights in
    (* Smallest threshold index whose filtered graph still reaches the
       maximum cardinality. *)
    let feasible idx =
      Metrics.incr c_probes;
      let kept = List.filter (fun e -> e.weight <= weight_array.(idx)) edge_list in
      let result = matching_size ~nl ~nr kept in
      result.size >= target
    in
    let lo = ref 0 and hi = ref (Array.length weight_array - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let threshold = weight_array.(!lo) in
    let kept = List.filter (fun e -> e.weight <= threshold) edge_list in
    let kept_array = Array.of_list kept in
    let edges = Array.map (fun e -> (e.l, e.r)) kept_array in
    let result = Hopcroft_karp.solve ~nl ~nr ~edges in
    assert (result.size = target);
    let left_match = Array.make nl (-1) in
    let pairs = ref [] in
    let bottleneck = ref min_int in
    Array.iteri
      (fun l k ->
        if k >= 0 then begin
          let e = kept_array.(k) in
          left_match.(l) <- e.r;
          pairs := (l, e.r) :: !pairs;
          if e.weight > !bottleneck then bottleneck := e.weight
        end)
      result.left_match;
    { bottleneck = !bottleneck; pairs = List.rev !pairs; left_match }
  end

(* The complete graph's MCBBM on the dense matrix.  Every threshold probe
   lists the kept edges row by row, columns ascending, which is the order
   of the equivalent complete edge list, and solves cold, so Hopcroft–Karp
   picks the same matching as [solve] on that list. *)
let solve_complete ~weights =
  let nl = Array.length weights in
  let nr = if nl = 0 then 0 else Array.length weights.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> nr then
        invalid_arg "Bottleneck.solve_complete: ragged matrix")
    weights;
  Trace.with_span "bottleneck_solve" @@ fun () ->
  (* A complete bipartite graph saturates its smaller side. *)
  let target = min nl nr in
  if target = 0 then { bottleneck = min_int; pairs = []; left_match = Array.make nl (-1) }
  else begin
    (* Below the largest per-vertex minimum weight, some vertex that every
       maximum matching saturates is isolated: no threshold under it is
       feasible. *)
    let floor = ref min_int in
    if nl <= nr then
      Array.iter (fun row -> floor := max !floor (Array.fold_left min max_int row)) weights;
    if nr <= nl then
      for r = 0 to nr - 1 do
        let least = ref max_int in
        for l = 0 to nl - 1 do
          least := min !least weights.(l).(r)
        done;
        floor := max !floor !least
      done;
    let ne = nl * nr in
    let hk = Hopcroft_karp.workspace () in
    let src = Array.make ne 0 and dst = Array.make ne 0 in
    let left = Array.make nl (-1) and right = Array.make nr (-1) in
    let matching_at threshold =
      Metrics.incr c_probes;
      let kept = ref 0 in
      for l = 0 to nl - 1 do
        let row = weights.(l) in
        for r = 0 to nr - 1 do
          if row.(r) <= threshold then begin
            src.(!kept) <- l;
            dst.(!kept) <- r;
            incr kept
          end
        done
      done;
      Hopcroft_karp.max_matching hk ~nl ~nr ~ne:!kept ~src ~dst ~left_match:left
        ~right_match:right
    in
    (* The floor is the answer whenever it is feasible.  Otherwise
       binary-search the distinct weights above it for the smallest
       feasible threshold (the largest weight always is) and solve there. *)
    if matching_at !floor < target then begin
      let distinct = Array.make ne 0 in
      for l = 0 to nl - 1 do
        Array.blit weights.(l) 0 distinct (l * nr) nr
      done;
      Array.sort Int.compare distinct;
      let count = ref 1 in
      for k = 1 to ne - 1 do
        if distinct.(k) <> distinct.(!count - 1) then begin
          distinct.(!count) <- distinct.(k);
          incr count
        end
      done;
      let lo = ref 0 and hi = ref (!count - 1) in
      while distinct.(!lo) <= !floor do
        incr lo
      done;
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if matching_at distinct.(mid) >= target then hi := mid else lo := mid + 1
      done;
      let size = matching_at distinct.(!lo) in
      assert (size = target)
    end;
    let left_match = Array.make nl (-1) in
    let pairs = ref [] in
    let bottleneck = ref min_int in
    for l = nl - 1 downto 0 do
      let k = left.(l) in
      if k >= 0 then begin
        let r = dst.(k) in
        left_match.(l) <- r;
        pairs := (l, r) :: !pairs;
        bottleneck := max !bottleneck weights.(l).(r)
      end
    done;
    { bottleneck = !bottleneck; pairs = !pairs; left_match }
  end

let brute_force ~nl ~nr edge_list =
  if max nl nr > 10 then invalid_arg "Bottleneck.brute_force: instance too big";
  let full = matching_size ~nl ~nr edge_list in
  let target = full.size in
  let best = ref max_int in
  let used_r = Array.make nr false in
  (* Enumerate all matchings by left vertex, track size and bottleneck. *)
  let by_left = Array.make nl [] in
  List.iter (fun e -> by_left.(e.l) <- e :: by_left.(e.l)) edge_list;
  let rec go l size bottleneck =
    if l = nl then begin
      if size = target && bottleneck < !best then best := bottleneck
    end
    else begin
      (* Option 1: leave l unmatched (only useful if target still
         reachable). *)
      if size + (nl - l - 1) >= target then go (l + 1) size bottleneck;
      List.iter
        (fun e ->
          if not used_r.(e.r) then begin
            used_r.(e.r) <- true;
            go (l + 1) (size + 1) (max bottleneck e.weight);
            used_r.(e.r) <- false
          end)
        by_left.(l)
    end
  in
  go 0 0 min_int;
  !best
