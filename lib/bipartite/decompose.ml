let check_regular ~nl ~nr ~edges =
  if nl <> nr then invalid_arg "Decompose: sides must have equal size";
  if nl = 0 then 0
  else begin
    let deg_l = Array.make nl 0 and deg_r = Array.make nr 0 in
    Array.iter
      (fun (l, r) ->
        if l < 0 || l >= nl || r < 0 || r >= nr then
          invalid_arg "Decompose: endpoint out of range";
        deg_l.(l) <- deg_l.(l) + 1;
        deg_r.(r) <- deg_r.(r) + 1)
      edges;
    let d = deg_l.(0) in
    Array.iter
      (fun x -> if x <> d then invalid_arg "Decompose: not regular")
      deg_l;
    Array.iter
      (fun x -> if x <> d then invalid_arg "Decompose: not regular")
      deg_r;
    d
  end

let validate ~nl ~nr ~edges matchings =
  let num_edges = Array.length edges in
  let covered = Array.make num_edges false in
  let matching_ok matching =
    Array.length matching = nl
    && begin
         let rights = Array.make nr false in
         let ok = ref true in
         Array.iteri
           (fun l k ->
             if k < 0 || k >= num_edges || covered.(k) then ok := false
             else begin
               covered.(k) <- true;
               let el, er = edges.(k) in
               if el <> l || rights.(er) then ok := false
               else rights.(er) <- true
             end)
           matching;
         !ok
       end
  in
  List.for_all matching_ok matchings
  && Array.for_all (fun c -> c) covered
