module Rng = Qr_util.Rng
module Metrics = Qr_obs.Metrics

let c_injections = Metrics.counter "fault_injections"

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected point -> Some (Printf.sprintf "Fault.Injected(%s)" point)
    | _ -> None)

type action =
  | Raise
  | Raise_errno of Unix.error
  | Delay_ms of int
  | Truncate
  | Corrupt

type spec = {
  point : string;
  action : action;
  prob : float;
  max_fires : int option;
}

(* ------------------------------------------------------------- rendering *)

let errno_name = function
  | Unix.EINTR -> "eintr"
  | Unix.EAGAIN -> "eagain"
  | Unix.EPIPE -> "epipe"
  | Unix.ECONNRESET -> "econnreset"
  | e -> Unix.error_message e

let action_to_string = function
  | Raise -> "raise"
  | Raise_errno e -> Printf.sprintf "raise(%s)" (errno_name e)
  | Delay_ms ms -> Printf.sprintf "delay(%d)" ms
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"

let spec_to_string s =
  Printf.sprintf "%s=%s%s%s" s.point
    (action_to_string s.action)
    (if s.prob = 1.0 then "" else Printf.sprintf "@%g" s.prob)
    (match s.max_fires with
    | None -> ""
    | Some n -> Printf.sprintf "#%d" n)

let to_string specs = String.concat ";" (List.map spec_to_string specs)

(* --------------------------------------------------------------- parsing *)

let parse_action text =
  match text with
  | "raise" | "raise(injected)" -> Ok Raise
  | "raise(eintr)" -> Ok (Raise_errno Unix.EINTR)
  | "raise(eagain)" -> Ok (Raise_errno Unix.EAGAIN)
  | "raise(epipe)" -> Ok (Raise_errno Unix.EPIPE)
  | "raise(econnreset)" -> Ok (Raise_errno Unix.ECONNRESET)
  | "truncate" -> Ok Truncate
  | "corrupt" -> Ok Corrupt
  | _ ->
      let n = String.length text in
      if n > 7 && String.sub text 0 6 = "delay(" && text.[n - 1] = ')' then
        match int_of_string_opt (String.sub text 6 (n - 7)) with
        | Some ms when ms >= 0 -> Ok (Delay_ms ms)
        | _ ->
            Error
              (Printf.sprintf "bad delay %S: expected delay(<nonnegative ms>)"
                 text)
      else
        Error
          (Printf.sprintf
             "unknown action %S (raise, raise(eintr|eagain|epipe|econnreset), \
              delay(<ms>), truncate, corrupt)"
             text)

(* One spec: point=action with optional @prob / #count suffixes in either
   order.  Action parameters never contain '@' or '#', so the first of
   either character ends the action text. *)
let parse_spec text =
  let fail msg = Error (Printf.sprintf "spec %S: %s" text msg) in
  match String.index_opt text '=' with
  | None -> fail "expected point=action"
  | Some eq -> (
      let point = String.trim (String.sub text 0 eq) in
      let rhs =
        String.trim (String.sub text (eq + 1) (String.length text - eq - 1))
      in
      if point = "" then fail "empty point name"
      else
        let idx_at = String.index_opt rhs '@' in
        let idx_hash = String.index_opt rhs '#' in
        let action_end =
          match (idx_at, idx_hash) with
          | None, None -> String.length rhs
          | Some i, None | None, Some i -> i
          | Some i, Some j -> min i j
        in
        (* A suffix runs to the start of the other suffix or to the end. *)
        let suffix_of start =
          let stop =
            List.fold_left
              (fun stop -> function
                | Some i when i > start && i < stop -> i
                | _ -> stop)
              (String.length rhs)
              [ idx_at; idx_hash ]
          in
          String.sub rhs (start + 1) (stop - start - 1)
        in
        let prob =
          match idx_at with
          | None -> Ok 1.0
          | Some i -> (
              let s = suffix_of i in
              match float_of_string_opt s with
              | Some p when p > 0.0 && p <= 1.0 -> Ok p
              | _ ->
                  Error
                    (Printf.sprintf "bad probability %S: expected @p with p \
                                     in (0, 1]" s))
        in
        let max_fires =
          match idx_hash with
          | None -> Ok None
          | Some i -> (
              let s = suffix_of i in
              match int_of_string_opt s with
              | Some n when n >= 1 -> Ok (Some n)
              | _ ->
                  Error
                    (Printf.sprintf "bad count %S: expected #n with n >= 1" s))
        in
        match (parse_action (String.sub rhs 0 action_end), prob, max_fires)
        with
        | Ok action, Ok prob, Ok max_fires ->
            Ok { point; action; prob; max_fires }
        | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> fail msg)

let parse_plan text =
  String.split_on_char ';' text
  |> List.filter_map (fun s ->
         let s = String.trim s in
         if s = "" then None else Some s)
  |> List.fold_left
       (fun acc s ->
         match (acc, parse_spec s) with
         | Error _, _ -> acc
         | _, (Error _ as e) -> e
         | Ok specs, Ok spec -> Ok (spec :: specs))
       (Ok [])
  |> Result.map List.rev

(* ----------------------------------------------------------- armed state *)

type armed_spec = { spec : spec; mutable remaining : int option }

(* Domain-safety (DESIGN.md §13): the armed plan is shared by every
   domain — remaining-fire counts and tallies live under [mutex] — but
   each domain draws probabilities from {e its own} SplitMix64 stream,
   derived deterministically from (seed, domain index).  That keeps a
   chaos run reproducible under parallelism: a domain's draw sequence
   depends only on its own fault-point visits, never on how the
   scheduler interleaved the other workers. *)
type state = {
  seed : int;
  mutex : Mutex.t;
  rngs : (int, Rng.t) Hashtbl.t;  (* domain index -> probability stream *)
  table : (string, armed_spec list) Hashtbl.t;
  tally : (string, int) Hashtbl.t;
}

let state : state option Atomic.t = Atomic.make None

(* Stream for [domain]: index 0 (the main domain) gets [Rng.create seed]
   exactly — the historical single-domain stream, so existing seeded
   chaos runs reproduce unchanged — and index i > 0 gets an independent
   substream split off a master advanced i steps. *)
let derive_stream ~seed ~domain =
  if domain < 0 then invalid_arg "Fault.derive_stream: negative domain index";
  if domain = 0 then Rng.create seed
  else begin
    let master = Rng.create seed in
    for _ = 1 to domain do
      ignore (Rng.next_int64 master)
    done;
    Rng.split master
  end

(* Worker pools register a stable per-worker index here; unregistered
   domains fall back to the (unique, never-reused) runtime domain id —
   still safe, just not reproducible across runs.  The main domain is
   index 0 by default. *)
let domain_index_key =
  Domain.DLS.new_key (fun () ->
      if Domain.is_main_domain () then 0 else (Domain.self () :> int))

let set_domain_index idx =
  if idx < 0 then invalid_arg "Fault.set_domain_index: negative index";
  Domain.DLS.set domain_index_key idx

(* The calling domain's stream; call with [st.mutex] held (the table is
   shared). *)
let domain_rng st =
  let idx = Domain.DLS.get domain_index_key in
  match Hashtbl.find_opt st.rngs idx with
  | Some rng -> rng
  | None ->
      let rng = derive_stream ~seed:st.seed ~domain:idx in
      Hashtbl.add st.rngs idx rng;
      rng

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let arm ?(seed = 0) specs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt table spec.point) in
      Hashtbl.replace table spec.point
        (prev @ [ { spec; remaining = spec.max_fires } ]))
    specs;
  Atomic.set state
    (Some
       {
         seed;
         mutex = Mutex.create ();
         rngs = Hashtbl.create 8;
         table;
         tally = Hashtbl.create 8;
       })

let disarm () = Atomic.set state None
let armed () = Atomic.get state <> None

let plan () =
  match Atomic.get state with
  | None -> []
  | Some st ->
      locked st @@ fun () ->
      Hashtbl.fold (fun _ specs acc -> List.map (fun a -> a.spec) specs @ acc)
        st.table []

let fires point =
  match Atomic.get state with
  | None -> 0
  | Some st ->
      locked st @@ fun () ->
      Option.value ~default:0 (Hashtbl.find_opt st.tally point)

let env_var = "QR_FAULTS"

let arm_from_env () =
  match Sys.getenv_opt "QR_FAULTS" with
  | None | Some "" -> Ok false
  | Some text -> (
      match parse_plan text with
      | Error _ as e -> (e :> (bool, string) result)
      | Ok specs -> (
          match Sys.getenv_opt "QR_FAULTS_SEED" with
          | None ->
              arm specs;
              Ok true
          | Some s -> (
              match int_of_string_opt s with
              | Some seed ->
                  arm ~seed specs;
                  Ok true
              | None ->
                  Error
                    (Printf.sprintf "QR_FAULTS_SEED %S is not an integer" s))))

(* Fire every armed spec at [point] whose action kind the caller can
   apply: draw probability (from the calling domain's stream), consume a
   firing, bump the tally.  Specs the caller cannot apply are skipped
   entirely (no draw, no firing) so the matching helper still sees them.
   Call with [st.mutex] held. *)
let fire st point ~applies =
  match Hashtbl.find_opt st.table point with
  | None -> []
  | Some armed_specs ->
      let rng = domain_rng st in
      List.filter_map
        (fun a ->
          if not (applies a.spec.action) then None
          else if a.remaining = Some 0 then None
          else if a.spec.prob < 1.0 && Rng.float rng 1.0 >= a.spec.prob
          then None
          else begin
            (match a.remaining with
            | Some n -> a.remaining <- Some (n - 1)
            | None -> ());
            Hashtbl.replace st.tally point
              (1 + Option.value ~default:0 (Hashtbl.find_opt st.tally point));
            Metrics.incr c_injections;
            Some a.spec.action
          end)
        armed_specs

let point name ~f =
  match Atomic.get state with
  | None -> f ()
  | Some st ->
      (* Fire under the lock; sleep and raise outside it. *)
      let actions =
        locked st (fun () ->
            fire st name ~applies:(function
              | Raise | Raise_errno _ | Delay_ms _ -> true
              | Truncate | Corrupt -> false))
      in
      List.iter
        (function
          | Delay_ms ms -> Unix.sleepf (float_of_int ms /. 1000.)
          | Raise -> raise (Injected name)
          | Raise_errno e -> raise (Unix.Unix_error (e, "fault", name))
          | Truncate | Corrupt -> ())
        actions;
      f ()

let corrupt name mangle v =
  match Atomic.get state with
  | None -> v
  | Some st ->
      if
        locked st (fun () ->
            fire st name ~applies:(function Corrupt -> true | _ -> false))
        <> []
      then mangle v
      else v

let truncate name len =
  match Atomic.get state with
  | None -> len
  | Some st ->
      if len <= 1 then len
      else
        locked st (fun () ->
            if
              fire st name ~applies:(function Truncate -> true | _ -> false)
              <> []
            then 1 + Rng.int (domain_rng st) (len - 1)
            else len)
