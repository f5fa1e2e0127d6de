type t = int array

let size = Array.length

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun x ->
      if x < 0 || x >= n || seen.(x) then ok := false else seen.(x) <- true)
    p;
  !ok

let check p =
  if not (is_permutation p) then invalid_arg "Perm.check: not a permutation";
  p

let identity n = Array.init n (fun i -> i)

let is_identity p =
  let n = Array.length p in
  let rec loop i = i >= n || (p.(i) = i && loop (i + 1)) in
  loop 0

let equal (p : t) (q : t) = p = q

let inverse p =
  let n = Array.length p in
  let inv = Array.make n 0 in
  for i = 0 to n - 1 do
    inv.(p.(i)) <- i
  done;
  inv

let compose p q =
  if Array.length p <> Array.length q then
    invalid_arg "Perm.compose: size mismatch";
  Array.map (fun dst -> q.(dst)) p

let transposition n i j =
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Perm.transposition";
  let p = identity n in
  p.(i) <- j;
  p.(j) <- i;
  p

let of_cycles n cycle_list =
  let p = identity n in
  let seen = Array.make n false in
  let touch x =
    if x < 0 || x >= n then invalid_arg "Perm.of_cycles: element out of range";
    if seen.(x) then invalid_arg "Perm.of_cycles: repeated element";
    seen.(x) <- true
  in
  let install = function
    | [] -> ()
    | first :: _ as cycle ->
        List.iter touch cycle;
        let rec chain = function
          | [ last ] -> p.(last) <- first
          | x :: (y :: _ as rest) ->
              p.(x) <- y;
              chain rest
          | [] -> ()
        in
        chain cycle
  in
  List.iter install cycle_list;
  p

let cycles p =
  let n = Array.length p in
  let seen = Array.make n false in
  let acc = ref [] in
  for start = 0 to n - 1 do
    if (not seen.(start)) && p.(start) <> start then begin
      let rec walk x path =
        seen.(x) <- true;
        if p.(x) = start then List.rev (x :: path) else walk p.(x) (x :: path)
      in
      acc := walk start [] :: !acc
    end
  done;
  List.rev !acc

let fixpoints p =
  let acc = ref [] in
  for i = Array.length p - 1 downto 0 do
    if p.(i) = i then acc := i :: !acc
  done;
  !acc

let support_size p = Array.length p - List.length (fixpoints p)

let parity p =
  (* n minus the number of cycles (counting fixed points) mod 2. *)
  let n = Array.length p in
  let trivial = List.length (fixpoints p) in
  let nontrivial = cycles p in
  let cycle_total = trivial + List.length nontrivial in
  (n - cycle_total) mod 2

let total_distance dist p =
  let acc = ref 0 in
  Array.iteri (fun i dst -> acc := !acc + dist i dst) p;
  !acc

let max_distance dist p =
  let acc = ref 0 in
  Array.iteri (fun i dst -> acc := max !acc (dist i dst)) p;
  !acc

let pp fmt p =
  match cycles p with
  | [] -> Format.pp_print_string fmt "id"
  | cycle_list ->
      let print_cycle cycle =
        Format.fprintf fmt "(%s)"
          (String.concat " " (List.map string_of_int cycle))
      in
      List.iter print_cycle cycle_list

let to_string p = Format.asprintf "%a" pp p
