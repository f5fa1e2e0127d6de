module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Metrics = Qr_obs.Metrics

let c_rounds = Metrics.counter "odd_even_rounds"

(* Two idle rounds in a row (one even, one odd) mean every adjacent pair
   is in order, which replaces an O(k) sortedness scan per round; the
   extra idle rounds are dropped as empty rounds are.  The
   compare-exchange has no branch: [mask] is -1 when the pair is out of
   order and 0 otherwise, so [d land mask] is the amount to move. *)
let count_layers tokens k parity counts =
  let depth = ref 0 and idle = ref 0 and start = ref parity and rounds = ref 0 in
  while !idle < 2 do
    incr rounds;
    let swaps = ref 0 and p = ref !start in
    while !p + 1 < k do
      let a = tokens.(!p) and b = tokens.(!p + 1) in
      let d = b - a in
      let mask = d asr (Sys.int_size - 1) in
      tokens.(!p) <- a + (d land mask);
      tokens.(!p + 1) <- b - (d land mask);
      swaps := !swaps - mask;
      p := !p + 2
    done;
    if !swaps = 0 then incr idle
    else begin
      idle := 0;
      counts.(!depth) <- !swaps;
      incr depth
    end;
    start := 1 - !start
  done;
  Metrics.add c_rounds !rounds;
  for i = 0 to k - 1 do
    assert (tokens.(i) = i)
  done;
  !depth

let add_counts sizes counts depth =
  for t = 0 to depth - 1 do
    sizes.(t) <- sizes.(t) + counts.(t)
  done

(* A non-empty round moves a token one position, so no parity takes
   fewer rounds than [reach], the farthest any token travels: when the
   even parity meets that bound the odd one cannot beat it, and a tie
   keeps the even one. *)
let min_parity dests off k ~tokens ~even ~odd ~sizes =
  let reach = ref 0 in
  for p = 0 to k - 1 do
    let dest = dests.(off + p) in
    tokens.(p) <- dest;
    if abs (dest - p) > !reach then reach := abs (dest - p)
  done;
  let depth_even = count_layers tokens k 0 even in
  let depth_odd =
    if depth_even = !reach then depth_even
    else begin
      Array.blit dests off tokens 0 k;
      count_layers tokens k 1 odd
    end
  in
  if depth_odd < depth_even then begin
    add_counts sizes odd depth_odd;
    1
  end
  else begin
    add_counts sizes even depth_even;
    0
  end

(* [count_layers]'s rounds with a branch per pair, since a swap is
   written.  [tokens] is annotated: left to inference its element type
   stays open, and [a > b] compiles to the polymorphic compare. *)
let replay dests off k parity ~base ~stride ~first ~step (tokens : int array)
    ends fill =
  Array.blit dests off tokens 0 k;
  let t = ref first and idle = ref 0 and start = ref parity in
  while !idle < 2 do
    let p = ref !start and swapped = ref false in
    while !p + 1 < k do
      let a = tokens.(!p) and b = tokens.(!p + 1) in
      if a > b then begin
        tokens.(!p) <- b;
        tokens.(!p + 1) <- a;
        let u = base + (!p * stride) and i = fill.(!t) + step in
        fill.(!t) <- i;
        ends.(2 * i) <- u;
        ends.((2 * i) + 1) <- u + stride;
        swapped := true
      end;
      p := !p + 2
    done;
    if !swapped then begin
      incr t;
      idle := 0
    end
    else incr idle;
    start := 1 - !start
  done

(* [route]'s endpoint array and layer offsets, before [Schedule.of_flat]
   takes them: [route_snake] relabels the array in place. *)
let route_flat dests =
  if not (Perm.is_permutation dests) then
    invalid_arg "Path_route.route: dests is not a permutation";
  let k = Array.length dests in
  let tokens = Array.make k 0 and sizes = Array.make (k + 1) 0 in
  let parity =
    min_parity dests 0 k ~tokens ~even:(Array.make (k + 1) 0)
      ~odd:(Array.make (k + 1) 0) ~sizes
  in
  (* Every non-empty round has a swap, and no round past k does. *)
  let depth = ref 0 in
  while sizes.(!depth) > 0 do
    incr depth
  done;
  let depth = !depth in
  let starts = Array.make (depth + 1) 0 in
  for t = 0 to depth - 1 do
    starts.(t + 1) <- starts.(t) + sizes.(t)
  done;
  let ends = Array.make (2 * starts.(depth)) 0 in
  let fill = Array.init depth (fun t -> starts.(t) - 1) in
  replay dests 0 k parity ~base:0 ~stride:1 ~first:0 ~step:1 tokens ends fill;
  Array.iteri (fun t last -> assert (last = starts.(t + 1) - 1)) fill;
  (ends, starts)

let route dests =
  let ends, starts = route_flat dests in
  Schedule.of_flat ~ends ~starts

let snake_order grid =
  let rows = Grid.rows grid and cols = Grid.cols grid in
  Array.init (rows * cols) (fun k ->
      let r = k / cols in
      let offset = k mod cols in
      let c = if r mod 2 = 0 then offset else cols - 1 - offset in
      Grid.index grid r c)

let route_snake grid pi =
  let n = Grid.size grid in
  if Array.length pi <> n then
    invalid_arg "Path_route.route_snake: size mismatch";
  let order = snake_order grid in
  let position_in_snake = Perm.inverse order in
  (* Token at snake slot k must reach the snake slot of its grid
     destination. *)
  let dests = Array.init n (fun k -> position_in_snake.(pi.(order.(k)))) in
  let ends, starts = route_flat dests in
  Array.iteri (fun i p -> ends.(i) <- order.(p)) ends;
  let sched = Schedule.of_flat ~ends ~starts in
  assert (Schedule.realizes ~n sched pi);
  sched

let depth_upper_bound k = k
