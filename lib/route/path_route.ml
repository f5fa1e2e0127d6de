module Perm = Qr_perm.Perm
module Metrics = Qr_obs.Metrics

let c_rounds = Metrics.counter "odd_even_rounds"

let route_from_parity start_parity dests =
  if not (Perm.is_permutation dests) then
    invalid_arg "Path_route.route: dests is not a permutation";
  let k = Array.length dests in
  let tokens = Array.copy dests in
  let layers = ref [] in
  let parity = ref start_parity in
  let rounds = ref 0 in
  let sorted () =
    let rec check i = i >= k || (tokens.(i) = i && check (i + 1)) in
    check 0
  in
  (* Odd-even transposition needs at most k rounds from either starting
     parity; k+1 leaves room for a wasted first round. *)
  while (not (sorted ())) && !rounds <= k + 1 do
    Metrics.incr c_rounds;
    let swaps = ref [] in
    let p = ref !parity in
    while !p + 1 < k do
      if tokens.(!p) > tokens.(!p + 1) then begin
        let tmp = tokens.(!p) in
        tokens.(!p) <- tokens.(!p + 1);
        tokens.(!p + 1) <- tmp;
        swaps := (!p, !p + 1) :: !swaps
      end;
      p := !p + 2
    done;
    if !swaps <> [] then layers := List.rev !swaps :: !layers;
    parity := 1 - !parity;
    incr rounds
  done;
  assert (sorted ());
  List.rev !layers

let route dests = route_from_parity 0 dests

let route_min_parity dests =
  let even = route_from_parity 0 dests in
  let odd = route_from_parity 1 dests in
  if List.length odd < List.length even then odd else even

(* The same rounds as [route_from_parity], counted instead of recorded.
   Two idle rounds in a row (one even, one odd) mean every adjacent pair
   is in order, which replaces the O(k) sortedness scan per round; the
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

let depth_upper_bound k = k
