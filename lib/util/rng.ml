type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: one additive step then two xor-shift-multiply
   mixing rounds (constants from the reference implementation). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = max_int in
  let rec loop () =
    let raw = Int64.to_int (next_int64 t) land mask in
    let limit = mask - (mask mod bound) in
    if raw >= limit then loop () else raw mod bound
  in
  loop ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle_in_place t a =
  let n = Array.length a in
  for i = 0 to n - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let sample_distinct t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_distinct";
  (* Floyd's algorithm: k iterations, O(k) expected memory. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc
