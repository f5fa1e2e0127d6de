(* A scripted client/server exchange against the routing service.

   The whole wire protocol is exercised in-process: Server_session.handle_line
   is the exact request pipeline behind `qroute serve` (parse, dispatch,
   route, serialize), minus the transport — so this transcript is also the
   protocol's executable documentation.  Watch the second route request come
   back with "cached":true and identical schedule bytes, and the 0 ms
   deadline turn into a deadline_exceeded error envelope. *)

open Qroute

let () =
  Metrics.enable ();
  let session = Server_session.create () in
  let say line =
    Printf.printf ">>> %s\n<<< %s\n\n" line
      (Server_session.handle_line session line)
  in
  (* Which engines is this server offering? *)
  say {|{"id": 1, "method": "engines"}|};
  (* Route a 4x4 reversal with the paper's LocalGridRoute. *)
  let route_req =
    {|{"id": 2, "method": "route", "params": {"grid": {"rows": 4, "cols": 4}, "perm": [15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0], "engine": "local"}}|}
  in
  say route_req;
  (* The same request again is answered from the plan cache. *)
  say (String.concat "" [ {|{"id": 3,|};
                          String.sub route_req 9 (String.length route_req - 9) ]);
  (* A different configuration is a different cache key. *)
  say
    {|{"id": 4, "method": "route", "params": {"grid": {"rows": 4, "cols": 4}, "perm": [15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0], "engine": "local", "config": {"transpose": false}}}|};
  (* A batch routes each permutation through the plan cache in turn. *)
  say
    {|{"id": 5, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 3}, "perms": [[5,4,3,2,1,0], [1,0,2,3,4,5]], "engine": "naive"}}|};
  (* A 0 ms budget expires before planning starts. *)
  say
    {|{"id": 6, "method": "route", "params": {"grid": {"rows": 8, "cols": 8}, "perm": [63,62,61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,46,45,44,43,42,41,40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21,20,19,18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]}, "deadline_ms": 0}|};
  (* Errors are envelopes too: unknown methods do not kill the session. *)
  say {|{"id": 7, "method": "teleport"}|};
  (* The health report shows the cache doing its job. *)
  say {|{"id": 8, "method": "health"}|};
  Printf.printf
    "plan cache after the session: %d entries, %d hits, %d misses\n"
    (Plan_cache.length (Server_session.cache session))
    (Plan_cache.hits (Server_session.cache session))
    (Plan_cache.misses (Server_session.cache session));
  Metrics.disable ()
