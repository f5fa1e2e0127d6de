(* Tests for Qr_obs: Json round-trips, span tracing, metrics registry. *)

module Json = Qr_obs.Json
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics

(* The "every engine traced" case routes the whole registry, token
   engines included. *)
let () = Qroute.Token_engines.register ()

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Every test leaves the global sinks disabled so suites can run in any
   order. *)
let with_clean_sinks f =
  let finally () =
    ignore (Trace.stop ());
    Metrics.disable ();
    Metrics.reset ()
  in
  Fun.protect ~finally f

(* ----------------------------------------------------------------- Json *)

let test_json_print () =
  checks "scalars"
    {|{"a":null,"b":true,"c":-3,"d":"x\"y\n","e":[1,2.5]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Null);
            ("b", Json.Bool true);
            ("c", Json.Int (-3));
            ("d", Json.String "x\"y\n");
            ("e", Json.List [ Json.Int 1; Json.Float 2.5 ]);
          ]))

let test_json_float_keeps_kind () =
  (* Integer-valued floats must still parse back as floats. *)
  let doc = Json.List [ Json.Float 5.0; Json.Int 5 ] in
  match Json.of_string (Json.to_string doc) with
  | Ok (Json.List [ Json.Float f; Json.Int i ]) ->
      check (Alcotest.float 0.) "float survives" 5.0 f;
      checki "int survives" 5 i
  | Ok other -> Alcotest.failf "unexpected shape: %s" (Json.to_string other)
  | Error msg -> Alcotest.failf "parse error: %s" msg

let test_json_nonfinite_is_null () =
  checks "nan -> null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]))

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "röute \t \\ \x07");
        ("xs", Json.List [ Json.Int 0; Json.Int (-42); Json.Float 1e-3 ]);
        ("nested", Json.Obj [ ("deep", Json.List [ Json.Obj [] ]) ]);
        ("flag", Json.Bool false);
        ("nothing", Json.Null);
      ]
  in
  let again = Json.of_string_exn (Json.to_string doc) in
  checkb "round-trip equal" true (Json.equal doc again)

let test_json_parse_escapes () =
  match Json.of_string {|"aAé\n"|} with
  | Ok (Json.String s) -> checks "escapes decoded" "aA\xc3\xa9\n" s
  | _ -> Alcotest.fail "expected a string"

let test_json_parse_errors () =
  let is_error s =
    match Json.of_string s with Error _ -> true | Ok _ -> false
  in
  checkb "trailing garbage" true (is_error "1 2");
  checkb "unterminated string" true (is_error {|"abc|});
  checkb "bare word" true (is_error "nul");
  checkb "missing comma" true (is_error {|[1 2]|});
  checkb "empty input" true (is_error "");
  checkb "trailing newline ok" false (is_error "[1,2]\n")

let test_json_deep_nesting () =
  (* The recursive-descent parser must take heavily nested documents in
     stride — 512 levels is far beyond anything the wire protocol emits. *)
  let depth = 512 in
  let text =
    String.concat "" [ String.make depth '['; "7"; String.make depth ']' ]
  in
  let rec unwrap d doc =
    match (d, doc) with
    | 0, Json.Int 7 -> true
    | d, Json.List [ inner ] when d > 0 -> unwrap (d - 1) inner
    | _ -> false
  in
  checkb "512-deep array parses" true (unwrap depth (Json.of_string_exn text));
  checkb "re-prints to the same bytes" true
    (Json.to_string (Json.of_string_exn text) = text)

(* The printer's integer rendering must be byte-identical to
   [string_of_int] for every int: the edges, every digit-count boundary
   (±10^k and ±(10^k - 1)), and random ints over the whole range. *)
let json_int_edges =
  let rec powers p acc =
    let acc = p :: (p - 1) :: (-p) :: (1 - p) :: acc in
    if p > max_int / 10 then acc else powers (p * 10) acc
  in
  [ 0; 1; -1; 9; -9; 10; -10; max_int; min_int; min_int + 1; max_int - 1 ]
  @ powers 10 []

let test_json_int_edges () =
  List.iter
    (fun i ->
      checks (string_of_int i) (string_of_int i) (Json.to_string (Json.Int i)))
    json_int_edges

(* The shared integer writer, which [Json.to_buffer] and the schedule
   writer both call, appends exactly [string_of_int]'s bytes. *)
let json_int_prints_as_string_of_int =
  QCheck.Test.make ~name:"Int prints as string_of_int" ~count:2000
    QCheck.(oneof [ int; small_signed_int; oneofl json_int_edges ])
    (fun i ->
      let buf = Buffer.create 4 in
      Buffer.add_char buf '[';
      Json.int_to_buffer buf i;
      Buffer.contents buf = "[" ^ string_of_int i)

(* [Json.write_int] against [string_of_int] on the edges of its digit
   table (0 to 999) and of the longer path, at several positions in
   bytes with 0 to 4 bytes to spare: exactly the text, at [pos], ending
   where it says, nothing before [pos] touched.  One byte short of room,
   or a negative [pos], is [Invalid_argument]. *)
let test_write_int_table_edges () =
  List.iter
    (fun i ->
      let text = string_of_int i in
      let len = String.length text in
      for pos = 0 to 3 do
        for spare = 0 to 4 do
          let b = Bytes.make (pos + len + spare) '#' in
          let stop = Json.write_int b pos i in
          checki (Printf.sprintf "%s at %d: end" text pos) (pos + len) stop;
          checks (Printf.sprintf "%s at %d: text" text pos) text
            (Bytes.sub_string b pos len);
          checks (Printf.sprintf "%s at %d: before" text pos)
            (String.make pos '#') (Bytes.sub_string b 0 pos)
        done;
        match Json.write_int (Bytes.make (pos + len - 1) '#') pos i with
        | _ -> Alcotest.failf "%s at %d: wrote without room" text pos
        | exception Invalid_argument _ -> ()
      done;
      match Json.write_int (Bytes.make 32 '#') (-1) i with
      | _ -> Alcotest.failf "%s at -1: written" text
      | exception Invalid_argument _ -> ())
    [ 0; 9; 10; 99; 100; 999; 1000; 1023; -1; -9; -10; -99; -100; -999;
      -1000; min_int; max_int ]

let test_json_unicode_escapes () =
  let parsed text =
    match Json.of_string text with
    | Ok (Json.String s) -> s
    | Ok other -> Alcotest.failf "expected string, got %s" (Json.to_string other)
    | Error msg -> Alcotest.failf "parse error: %s" msg
  in
  checks "ascii" "A" (parsed "\"\\u0041\"");
  checks "two-byte utf-8" "\xc3\xa9" (parsed "\"\\u00e9\"");
  checks "three-byte utf-8" "\xe2\x82\xac" (parsed "\"\\u20ac\"");
  checks "uppercase hex digits" "\xe2\x82\xac" (parsed "\"\\u20AC\"");
  checks "escapes compose" "A=\xc3\xa9\n" (parsed "\"\\u0041=\\u00e9\\n\"");
  (* Lone surrogates are not rejected: they pass through as the naive
     3-byte encoding of the code point (documented parser behavior). *)
  checks "lone high surrogate" "\xed\xa0\x80" (parsed {|"\ud800"|});
  checks "lone low surrogate" "\xed\xbf\xbf" (parsed {|"\udfff"|});
  (* An escaped surrogate pair is one code point, encoded in 4 bytes. *)
  checks "U+1F600" "\xf0\x9f\x98\x80" (parsed {|"\ud83d\ude00"|});
  checks "U+10000" "\xf0\x90\x80\x80" (parsed {|"\ud800\udc00"|});
  checks "U+10FFFF" "\xf4\x8f\xbf\xbf" (parsed {|"\udbff\udfff"|});
  checks "pair between text" "a\xf0\x9f\x98\x80b"
    (parsed {|"a\ud83d\ude00b"|});
  checks "high then A" "\xed\xa0\xbdA" (parsed {|"\ud83dA"|});
  checks "high then escaped A" "\xed\xa0\xbdA" (parsed {|"\ud83d\u0041"|});
  checks "high then high" "\xed\xa0\xbd\xed\xa0\xbd"
    (parsed {|"\ud83d\ud83d"|});
  checks "low then high" "\xed\xb8\x80\xed\xa0\xbd"
    (parsed {|"\ude00\ud83d"|});
  checks "high at the end" "\xed\xa0\xbd" (parsed {|"\ud83d"|});
  let is_error s =
    match Json.of_string s with Error _ -> true | Ok _ -> false
  in
  checkb "truncated \\u" true (is_error {|"\u00|});
  checkb "short \\u" true (is_error {|"\u12"|});
  checkb "non-hex \\u" true (is_error {|"\uzzzz"|});
  checkb "high then non-hex \\u" true (is_error {|"\ud83d\uzzzz"|});
  checkb "high then truncated \\u" true (is_error {|"\ud83d\ude0"|})

let test_json_error_offsets () =
  (* Error messages carry the byte offset of the failure — the server
     echoes them back to clients, so they must point at the right spot. *)
  let error_of text =
    match Json.of_string text with
    | Error msg -> msg
    | Ok doc -> Alcotest.failf "unexpected parse: %s" (Json.to_string doc)
  in
  checks "trailing garbage after scalar" "trailing garbage at byte 2"
    (error_of "1 2");
  checks "trailing garbage after list" "trailing garbage at byte 5"
    (error_of "[1,2]x");
  checks "trailing second document" "trailing garbage at byte 8"
    (error_of {|{"a":1} {"b":2}|});
  checkb "offset skips interior whitespace" true
    (error_of "[1,2]   x" = "trailing garbage at byte 8");
  (* A \u escape takes exactly four hex digits: OCaml's digit separator
     '_' is not one, there or in a low surrogate's lookahead. *)
  List.iter
    (fun (text, msg) -> checks text msg (error_of text))
    [
      ({|"\u00_1"|}, "bad \\u escape at byte 2");
      ({|"\u0_41"|}, "bad \\u escape at byte 2");
      ({|"\u004_"|}, "bad \\u escape at byte 2");
      ({|["a\u_041"]|}, "bad \\u escape at byte 4");
      ({|"\ud83d\ude_0"|}, "bad \\u escape at byte 8");
    ]

let test_json_nonfinite_roundtrip () =
  (* Non-finite floats print as null (JSON has no NaN/inf), and the
     printed document must parse back cleanly. *)
  let doc =
    Json.List
      [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity;
        Json.Float 1.5 ]
  in
  let text = Json.to_string doc in
  checks "printed as null" "[null,null,null,1.5]" text;
  checkb "round-trips as nulls" true
    (Json.of_string_exn text
    = Json.List [ Json.Null; Json.Null; Json.Null; Json.Float 1.5 ]);
  (* Stable under a second print/parse cycle. *)
  checks "second cycle stable" text
    (Json.to_string (Json.of_string_exn text))

let test_json_member () =
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  checkb "present" true (Json.member "a" doc = Some (Json.Int 1));
  checkb "null field present" true (Json.member "b" doc = Some Json.Null);
  checkb "absent" true (Json.member "c" doc = None);
  checkb "non-object" true (Json.member "a" (Json.Int 3) = None)

(* ---------------------------------------------------------------- Trace *)

let test_trace_disabled_noop () =
  with_clean_sinks @@ fun () ->
  checkb "disabled" false (Trace.enabled ());
  let r = Trace.with_span "ghost" (fun () -> 7) in
  checki "value passes through" 7 r;
  Trace.add_attr "k" (Trace.Int 1);
  checki "nothing recorded" 0 (List.length (Trace.spans ()))

let test_trace_nesting () =
  with_clean_sinks @@ fun () ->
  let _, spans =
    Trace.run (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> ());
            Trace.with_span "inner" (fun () -> ())))
  in
  checki "three spans" 3 (List.length spans);
  (* Completion order: children before parents. *)
  (match List.map (fun (s : Trace.span) -> (s.name, s.depth)) spans with
  | [ ("inner", 1); ("inner", 1); ("outer", 0) ] -> ()
  | other ->
      Alcotest.failf "unexpected order/depths: %s"
        (String.concat "; "
           (List.map (fun (n, d) -> Printf.sprintf "%s@%d" n d) other)));
  let outer = List.nth spans 2 in
  let inner_total =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if s.name = "inner" then Int64.add acc s.dur_ns else acc)
      0L spans
  in
  checkb "durations nonnegative" true
    (List.for_all (fun (s : Trace.span) -> s.dur_ns >= 0L) spans);
  checkb "outer contains children" true (outer.dur_ns >= inner_total);
  checkb "self = dur - children" true
    (outer.self_ns = Int64.sub outer.dur_ns inner_total)

let test_trace_attrs_and_exceptions () =
  with_clean_sinks @@ fun () ->
  let (), spans =
    Trace.run (fun () ->
        (try
           Trace.with_span "failing" ~attrs:[ ("static", Trace.Bool true) ]
             (fun () ->
               Trace.add_attr "late" (Trace.Int 9);
               failwith "boom")
         with Failure _ -> ());
        Trace.add_attr "orphan" (Trace.Int 0))
  in
  match spans with
  | [ s ] ->
      checks "recorded despite raise" "failing" s.name;
      checkb "static attr kept" true
        (List.mem_assoc "static" s.attrs);
      checkb "late attr kept" true (List.mem_assoc "late" s.attrs)
  | _ -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_trace_stop_clears () =
  with_clean_sinks @@ fun () ->
  Trace.start ();
  Trace.with_span "a" (fun () -> ());
  let first = Trace.stop () in
  checki "one span" 1 (List.length first);
  checkb "disabled after stop" false (Trace.enabled ());
  checki "stop drained" 0 (List.length (Trace.stop ()));
  Trace.with_span "b" (fun () -> ());
  checki "nothing recorded while off" 0 (List.length (Trace.spans ()))

let test_trace_chrome_json () =
  with_clean_sinks @@ fun () ->
  let (), spans =
    Trace.run (fun () ->
        Trace.with_span "phase" ~attrs:[ ("k", Trace.Int 3) ] (fun () -> ()))
  in
  let doc = Trace.to_chrome_json spans in
  (* Must survive a print/parse cycle and contain a complete event. *)
  let again = Json.of_string_exn (Json.to_string doc) in
  match Json.member "traceEvents" again with
  | Some (Json.List [ ev ]) ->
      checkb "name" true (Json.member "name" ev = Some (Json.String "phase"));
      checkb "complete event" true
        (Json.member "ph" ev = Some (Json.String "X"));
      checkb "has ts" true (Json.member "ts" ev <> None);
      checkb "has dur" true (Json.member "dur" ev <> None);
      (match Json.member "args" ev with
      | Some args -> checkb "attr" true (Json.member "k" args = Some (Json.Int 3))
      | None -> Alcotest.fail "missing args")
  | _ -> Alcotest.fail "expected traceEvents with one event"

let test_trace_summary () =
  with_clean_sinks @@ fun () ->
  let (), spans =
    Trace.run (fun () ->
        Trace.with_span "a" (fun () ->
            Trace.with_span "b" (fun () -> ()));
        Trace.with_span "a" (fun () -> ()))
  in
  let rows = Trace.summary spans in
  checki "two rows" 2 (List.length rows);
  let row name = List.find (fun (r : Trace.row) -> r.span_name = name) rows in
  checki "a count" 2 (row "a").count;
  checki "b count" 1 (row "b").count;
  checkb "max <= total" true ((row "a").max_ns <= (row "a").total_ns);
  (* Self-times partition the wall time: sum of self = sum of root durs. *)
  let self_sum =
    List.fold_left (fun acc (r : Trace.row) -> Int64.add acc r.self_total_ns)
      0L rows
  in
  let root_sum =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if s.depth = 0 then Int64.add acc s.dur_ns else acc)
      0L spans
  in
  checkb "self-times partition wall time" true (self_sum = root_sum);
  let table = Trace.summary_table spans in
  checkb "table mentions both" true
    (String.length table > 0
    && String.index_opt table 'a' <> None
    && String.index_opt table 'b' <> None)

(* -------------------------------------------------------------- Metrics *)

let test_metrics_disabled_noop () =
  with_clean_sinks @@ fun () ->
  let c = Metrics.counter "t_noop_counter" in
  let g = Metrics.gauge "t_noop_gauge" in
  let h = Metrics.histogram "t_noop_hist" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.set g 3.5;
  Metrics.observe h 2.0;
  checki "counter untouched" 0 (Metrics.value c);
  checkb "gauge untouched" true (Metrics.gauge_value g = None);
  checki "histogram untouched" 0 (Metrics.histogram_count h)

let test_metrics_counter () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let c = Metrics.counter "t_counter" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "accumulates" 5 (Metrics.value c);
  checkb "lookup finds it" true (Metrics.find_counter "t_counter" = Some c);
  checkb "unknown is None" true (Metrics.find_counter "t_missing" = None);
  (* Re-registration returns the same instrument. *)
  let c' = Metrics.counter "t_counter" in
  Metrics.incr c';
  checki "shared" 6 (Metrics.value c);
  Metrics.reset ();
  checki "reset zeroes" 0 (Metrics.value c)

let test_metrics_kind_clash () =
  with_clean_sinks @@ fun () ->
  ignore (Metrics.counter "t_clash");
  checkb "gauge over counter rejected" true
    (try
       ignore (Metrics.gauge "t_clash");
       false
     with Invalid_argument _ -> true)

let test_metrics_gauge () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let g = Metrics.gauge "t_gauge" in
  Metrics.set g 1.5;
  Metrics.set g (-2.0);
  checkb "last value wins" true (Metrics.gauge_value g = Some (-2.0))

let test_metrics_histogram_buckets () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "t_hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 100.0 ];
  checki "count" 7 (Metrics.histogram_count h);
  Alcotest.check (Alcotest.float 1e-9) "sum" 112.0 (Metrics.histogram_sum h);
  (* Bounds are inclusive upper bounds; above the last bound -> overflow. *)
  (match Metrics.bucket_counts h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
      Alcotest.check (Alcotest.float 0.) "bound 1" 1.0 b1;
      Alcotest.check (Alcotest.float 0.) "bound 2" 2.0 b2;
      Alcotest.check (Alcotest.float 0.) "bound 3" 4.0 b3;
      checkb "overflow bound" true (binf = infinity);
      checki "<=1" 2 c1;
      checki "(1,2]" 2 c2;
      checki "(2,4]" 2 c3;
      checki ">4" 1 cinf
  | other -> Alcotest.failf "expected 4 buckets, got %d" (List.length other));
  Metrics.reset ();
  checki "reset count" 0 (Metrics.histogram_count h);
  checkb "reset buckets" true
    (List.for_all (fun (_, c) -> c = 0) (Metrics.bucket_counts h))

let test_metrics_default_buckets () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let h = Metrics.histogram "t_hist_default" in
  Metrics.observe h 3.0;
  Metrics.observe h 5000.0;
  (* Default bounds are powers of two 1..1024 plus overflow. *)
  checki "eleven bounds plus overflow" 12 (List.length (Metrics.bucket_counts h));
  checki "observation in (2,4]" 1
    (List.assoc 4.0 (Metrics.bucket_counts h));
  checki "overflow catches big" 1
    (List.assoc infinity (Metrics.bucket_counts h))

let test_metrics_to_json () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let c = Metrics.counter "t_json_counter" in
  let g = Metrics.gauge "t_json_gauge" in
  let _unset = Metrics.gauge "t_json_gauge_unset" in
  let h = Metrics.histogram ~buckets:[| 2.0 |] "t_json_hist" in
  Metrics.add c 3;
  Metrics.set g 0.5;
  Metrics.observe h 1.0;
  Metrics.observe h 9.0;
  let doc = Json.of_string_exn (Json.to_string (Metrics.to_json ())) in
  (match Json.member "counters" doc with
  | Some counters ->
      checkb "counter value" true
        (Json.member "t_json_counter" counters = Some (Json.Int 3))
  | None -> Alcotest.fail "missing counters");
  (match Json.member "gauges" doc with
  | Some gauges ->
      checkb "gauge value" true
        (Json.member "t_json_gauge" gauges = Some (Json.Float 0.5));
      checkb "unset gauge omitted" true
        (Json.member "t_json_gauge_unset" gauges = None)
  | None -> Alcotest.fail "missing gauges");
  match Json.member "histograms" doc with
  | Some hists -> (
      match Json.member "t_json_hist" hists with
      | Some hist ->
          checkb "hist count" true (Json.member "count" hist = Some (Json.Int 2));
          checkb "hist sum" true
            (Json.member "sum" hist = Some (Json.Float 10.0));
          (match Json.member "buckets" hist with
          | Some (Json.List buckets) -> checki "two buckets" 2 (List.length buckets)
          | _ -> Alcotest.fail "missing buckets")
      | None -> Alcotest.fail "missing t_json_hist")
  | None -> Alcotest.fail "missing histograms"

(* ----------------------------------------------------------- exposition *)

(* The exposition is line-oriented; index it as such. *)
let prom_lines () = String.split_on_char '\n' (Metrics.to_prometheus ())

let has_line lines l = List.mem l lines

let test_prometheus_counter_gauge () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let c = Metrics.counter ~help:"A test counter." "t_prom_counter" in
  let g = Metrics.gauge "t_prom_gauge" in
  let _unset = Metrics.gauge "t_prom_gauge_unset" in
  Metrics.add c 7;
  Metrics.set g 2.5;
  let lines = prom_lines () in
  checkb "help line" true (has_line lines "# HELP t_prom_counter A test counter.");
  checkb "type line" true (has_line lines "# TYPE t_prom_counter counter");
  checkb "counter sample" true (has_line lines "t_prom_counter 7");
  checkb "gauge type" true (has_line lines "# TYPE t_prom_gauge gauge");
  checkb "gauge sample" true (has_line lines "t_prom_gauge 2.5");
  checkb "unset gauge omitted" true
    (not
       (List.exists
          (fun l ->
            String.length l >= 17 && String.sub l 0 17 = "t_prom_gauge_unset")
          lines))

let test_prometheus_histogram_cumulative () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let h = Metrics.histogram ~buckets:[| 1.0; 2.5; 4.0 |] "t_prom_hist" in
  (* 1.0 lands exactly on a bound (inclusive); 9.0 only in the overflow. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0; 9.0 ];
  let lines = prom_lines () in
  checkb "type histogram" true (has_line lines "# TYPE t_prom_hist histogram");
  (* Cumulative: le=1 holds 0.5 and the exactly-on-bound 1.0. *)
  checkb "le=1" true (has_line lines "t_prom_hist_bucket{le=\"1\"} 2");
  checkb "le=2.5" true (has_line lines "t_prom_hist_bucket{le=\"2.5\"} 2");
  checkb "le=4" true (has_line lines "t_prom_hist_bucket{le=\"4\"} 3");
  checkb "le=+Inf is total" true
    (has_line lines "t_prom_hist_bucket{le=\"+Inf\"} 4");
  checkb "sum" true (has_line lines "t_prom_hist_sum 13.5");
  checkb "count" true (has_line lines "t_prom_hist_count 4")

let test_prometheus_empty_histogram () =
  with_clean_sinks @@ fun () ->
  Metrics.enable ();
  let _h = Metrics.histogram ~buckets:[| 0.5; 8.0 |] "t_prom_empty" in
  let lines = prom_lines () in
  (* An unobserved histogram still exposes its full shape, all zeroes —
     scrapers need the series to exist before the first event. *)
  checkb "le=0.5 zero" true (has_line lines "t_prom_empty_bucket{le=\"0.5\"} 0");
  checkb "le=8 zero" true (has_line lines "t_prom_empty_bucket{le=\"8\"} 0");
  checkb "+Inf zero" true (has_line lines "t_prom_empty_bucket{le=\"+Inf\"} 0");
  checkb "sum zero" true (has_line lines "t_prom_empty_sum 0");
  checkb "count zero" true (has_line lines "t_prom_empty_count 0")

let test_latency_buckets_shape () =
  (* Strictly increasing, sub-millisecond resolution at the bottom,
     seconds at the top — the contract the *_ms histograms rely on. *)
  let b = Metrics.latency_buckets in
  checkb "first is sub-ms" true (b.(0) < 1.0);
  checkb "last is seconds" true (b.(Array.length b - 1) >= 10_000.0);
  let increasing = ref true in
  for k = 1 to Array.length b - 1 do
    if not (b.(k) > b.(k - 1)) then increasing := false
  done;
  checkb "strictly increasing" true !increasing

(* -------------------------------------------------------- Trace_context *)

module Trace_context = Qr_obs.Trace_context

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_trace_context_mint () =
  let t = Trace_context.mint () in
  checki "trace_id width" 32 (String.length t.Trace_context.trace_id);
  checki "parent_id width" 16 (String.length t.Trace_context.parent_id);
  checkb "trace_id hex" true (is_hex t.Trace_context.trace_id);
  checkb "parent_id hex" true (is_hex t.Trace_context.parent_id);
  checkb "distinct mints" true
    (not (Trace_context.equal t (Trace_context.mint ())))

let test_trace_context_seeded () =
  Trace_context.seed 42;
  let a = Trace_context.mint () in
  Trace_context.seed 42;
  let b = Trace_context.mint () in
  checkb "seeded mint deterministic" true (Trace_context.equal a b)

let test_trace_context_roundtrip () =
  let t = Trace_context.mint () in
  let tp = Trace_context.to_traceparent t in
  checki "traceparent width" 55 (String.length tp);
  (match Trace_context.of_traceparent tp with
  | Ok t' -> checkb "roundtrip" true (Trace_context.equal t t')
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg);
  let child = Trace_context.child t in
  checks "child keeps trace_id" t.Trace_context.trace_id
    child.Trace_context.trace_id;
  checkb "child renames parent" true
    (child.Trace_context.parent_id <> t.Trace_context.parent_id)

let test_trace_context_rejects () =
  let bad tp = Result.is_error (Trace_context.of_traceparent tp) in
  checkb "garbage" true (bad "nope");
  checkb "bad version" true
    (bad "01-0123456789abcdef0123456789abcdef-0123456789abcdef-01");
  checkb "short trace_id" true (bad "00-0123-0123456789abcdef-01");
  checkb "uppercase rejected" true
    (bad "00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01");
  checkb "non-hex" true
    (bad "00-0123456789abcdex0123456789abcdef-0123456789abcdef-01");
  checkb "all-zero trace_id" true
    (bad "00-00000000000000000000000000000000-0123456789abcdef-01");
  checkb "all-zero parent" true
    (bad "00-0123456789abcdef0123456789abcdef-0000000000000000-01");
  checkb "make validates too" true
    (Result.is_error
       (Trace_context.make ~trace_id:"zz" ~parent_id:"0123456789abcdef"))

let test_trace_spans_carry_trace_id () =
  with_clean_sinks @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.set_trace_id None) @@ fun () ->
  let id = "0123456789abcdef0123456789abcdef" in
  Trace.set_trace_id (Some id);
  Trace.start ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" ~attrs:[ ("k", Trace.Int 1) ] (fun () -> ()));
  let stamped = Trace.stop () in
  checki "two spans" 2 (List.length stamped);
  List.iter
    (fun (s : Trace.span) ->
      checkb (s.Trace.name ^ " stamped") true
        (List.mem_assoc "trace_id" s.Trace.attrs
        && List.assoc "trace_id" s.Trace.attrs = Trace.String id))
    stamped;
  (* The given attrs survive alongside the stamp. *)
  let inner = List.find (fun (s : Trace.span) -> s.Trace.name = "inner") stamped in
  checkb "own attr kept" true
    (List.assoc_opt "k" inner.Trace.attrs = Some (Trace.Int 1));
  (* And with the context cleared, spans are unstamped again. *)
  Trace.set_trace_id None;
  Trace.start ();
  Trace.with_span "bare" (fun () -> ());
  match Trace.stop () with
  | [ s ] -> checkb "no stamp" true (not (List.mem_assoc "trace_id" s.Trace.attrs))
  | other -> Alcotest.failf "expected one span, got %d" (List.length other)

let test_trace_summary_alignment () =
  with_clean_sinks @@ fun () ->
  Trace.start ();
  Trace.with_span "a_span_name_much_longer_than_the_default_column" (fun () ->
      Trace.with_span "tiny" (fun () -> ()));
  let table = Trace.summary_table (Trace.stop ()) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' table)
  in
  checkb "several lines" true (List.length lines >= 3);
  (* Dynamic name padding: every rendered line has the same width, so
     the numeric columns line up even with long span names. *)
  match lines with
  | first :: rest ->
      let w = String.length first in
      List.iter
        (fun l -> checki ("line width of " ^ String.trim l) w (String.length l))
        rest
  | [] -> Alcotest.fail "empty table"

(* ------------------------------------------------------------------ Log *)

module Log = Qr_obs.Log

let has_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* Capture records in memory and restore global log state afterwards. *)
let with_log_capture ?(level = Log.Debug) ?(format = Log.Json) f =
  let captured = ref [] in
  Log.set_sink (Some (fun line -> captured := line :: !captured));
  Log.set_level level;
  Log.set_format format;
  let finally () =
    Log.set_sink None;
    Log.set_level Log.Warn;
    Log.set_format Log.Logfmt
  in
  Fun.protect ~finally (fun () -> f captured)

let test_log_json_record () =
  with_log_capture @@ fun captured ->
  Log.info "hello" [ ("k", Json.Int 3); ("s", Json.String "v") ];
  match !captured with
  | [ line ] -> (
      match Json.of_string line with
      | Ok doc ->
          checkb "level field" true
            (Json.member "level" doc = Some (Json.String "info"));
          checkb "msg field" true
            (Json.member "msg" doc = Some (Json.String "hello"));
          checkb "kv int" true (Json.member "k" doc = Some (Json.Int 3));
          checkb "ts_ms present" true
            (match Json.member "ts_ms" doc with
            | Some (Json.Float ms) -> ms >= 0.
            | _ -> false)
      | Error msg -> Alcotest.failf "record is not JSON: %s" msg)
  | other -> Alcotest.failf "expected 1 record, got %d" (List.length other)

let test_log_logfmt_record () =
  with_log_capture ~format:Log.Logfmt @@ fun captured ->
  Log.warn "spaced message" [ ("plain", Json.String "bare"); ("n", Json.Int 2) ];
  match !captured with
  | [ line ] ->
      checkb "level" true
        (has_substring ~affix:"level=warn" line);
      checkb "quoted msg" true
        (has_substring ~affix:"msg=\"spaced message\"" line);
      checkb "bare value" true
        (has_substring ~affix:"plain=bare" line);
      checkb "int value" true (has_substring ~affix:"n=2" line)
  | other -> Alcotest.failf "expected 1 record, got %d" (List.length other)

let test_log_level_filter () =
  with_log_capture ~level:Log.Warn @@ fun captured ->
  checkb "would_log error" true (Log.would_log Log.Error);
  checkb "would not log info" true (not (Log.would_log Log.Info));
  Log.debug "dropped" [];
  Log.info "dropped" [];
  Log.error "kept" [];
  checki "only the error got through" 1 (List.length !captured)

let test_log_warn_once () =
  with_log_capture @@ fun captured ->
  Log.reset_once ();
  Log.warn_once ~key:"k1" "first" [];
  Log.warn_once ~key:"k1" "suppressed" [];
  Log.warn_once ~key:"k2" "other key" [];
  checki "two records" 2 (List.length !captured);
  Log.reset_once ();
  Log.warn_once ~key:"k1" "after reset" [];
  checki "reset re-arms" 3 (List.length !captured)

let test_log_level_parse () =
  checkb "info" true (Log.level_of_string "INFO" = Ok Log.Info);
  checkb "warning alias" true (Log.level_of_string "warning" = Ok Log.Warn);
  checkb "bad" true (Result.is_error (Log.level_of_string "loud"));
  checkb "json" true (Log.format_of_string "json" = Ok Log.Json);
  checkb "bad format" true (Result.is_error (Log.format_of_string "xml"))

(* ---------------------------------------------- instrumented routing run *)

let test_routed_counters_consistent () =
  (* End-to-end: spans and counters from an instrumented routing call, with
     swap_layers equal to the schedule depth actually returned. *)
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let grid = Qroute.Grid.make ~rows:6 ~cols:6 in
  let pi = Qroute.Rng.permutation (Qroute.Rng.create 5) (Qroute.Grid.size grid) in
  let sched, spans =
    Trace.run (fun () -> Qroute.route ~engine:"best" grid pi)
  in
  Metrics.disable ();
  let names = List.map (fun (s : Trace.span) -> s.name) spans in
  List.iter
    (fun required ->
      checkb (required ^ " span present") true (List.mem required names))
    [ "route"; "column_graph_build"; "band_search"; "mcbbm_assign";
      "bottleneck_solve"; "round1_columns"; "round2_rows"; "round3_columns";
      "orientation_direct"; "orientation_transposed" ];
  let counter name =
    match Metrics.find_counter name with
    | Some c -> Metrics.value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  checki "route_calls" 1 (counter "route_calls");
  checki "swap_layers = depth" (Qroute.Schedule.depth sched)
    (counter "swap_layers");
  checki "swaps_total = size" (Qroute.Schedule.size sched)
    (counter "swaps_total");
  List.iter
    (fun name -> checkb (name ^ " counted") true (counter name > 0))
    [ "band_search_iterations"; "hk_calls"; "odd_even_rounds" ]

(* Hopcroft-Karp adds each counter once per call; the totals are those
   recorded when every phase and augmentation bumped its counter, on one
   fixed 8x8 [local] route. *)
let test_hk_counters_pinned () =
  with_clean_sinks @@ fun () ->
  Metrics.reset ();
  Metrics.enable ();
  let grid = Qroute.Grid.make ~rows:8 ~cols:8 in
  let pi = Qroute.Rng.permutation (Qroute.Rng.create 8) (Qroute.Grid.size grid) in
  let sched = Qroute.route ~engine:"local" grid pi in
  Metrics.disable ();
  checki "depth" 19 (Qroute.Schedule.depth sched);
  List.iter
    (fun (name, want) ->
      match Metrics.find_counter name with
      | Some c -> checki name want (Metrics.value c)
      | None -> Alcotest.failf "counter %s not registered" name)
    [ ("hk_calls", 21); ("hk_phases", 33); ("hk_augmentations", 165) ]

let test_every_engine_traced () =
  (* Every registered engine routes with both sinks on, and both exports
     print and parse back to the same document. *)
  with_clean_sinks @@ fun () ->
  let grid = Qroute.Grid.make ~rows:4 ~cols:4 in
  let n = Qroute.Grid.size grid in
  List.iteri
    (fun i engine ->
      let name = engine.Qroute.Router_intf.name in
      Metrics.reset ();
      Metrics.enable ();
      let pi = Qroute.Rng.permutation (Qroute.Rng.create (1000 + i)) n in
      let sched, spans =
        Trace.run (fun () -> Qroute.Router_intf.route_grid engine grid pi)
      in
      Metrics.disable ();
      checkb (name ^ " realizes pi") true
        (Qroute.Schedule.realizes ~n sched pi);
      checkb (name ^ " route span") true
        (List.exists (fun (s : Trace.span) -> s.name = "route") spans);
      List.iter
        (fun (what, doc) ->
          match Json.of_string (Json.to_string doc) with
          | Ok parsed ->
              checkb (name ^ " " ^ what ^ " parses back") true
                (Json.equal parsed doc)
          | Error msg -> Alcotest.failf "%s %s: %s" name what msg)
        [
          ("phases", Trace.summary_json spans);
          ("metrics", Metrics.to_json ());
        ])
    (Qroute.Router_registry.all ())

(* The [route] span reports the configuration the engine routes with: a
   [naive] route under the default configuration is the whole-multigraph
   drain with the arbitrary assignment on one orientation, as its own
   [band_search] span says. *)
let test_naive_route_span_config () =
  with_clean_sinks @@ fun () ->
  let grid = Qroute.Grid.make ~rows:4 ~cols:4 in
  let pi = Qroute.Rng.permutation (Qroute.Rng.create 7) (Qroute.Grid.size grid) in
  let _, spans =
    Trace.run (fun () ->
        Qroute.Router_intf.route_grid (Qroute.Router_registry.get "naive") grid pi)
  in
  let attr span key =
    match List.find_opt (fun (s : Trace.span) -> s.name = span) spans with
    | Some s -> List.assoc_opt key s.attrs
    | None -> Alcotest.failf "no %s span" span
  in
  List.iter
    (fun (key, want) ->
      checkb ("route " ^ key) true (attr "route" key = Some want))
    [
      ("strategy", Trace.String "naive");
      ("discovery", Trace.String "whole");
      ("assignment", Trace.String "arbitrary");
      ("transpose", Trace.Bool false);
    ];
  checkb "band_search agrees" true
    (attr "band_search" "discovery" = Some (Trace.String "whole"))

let () =
  Alcotest.run "qr_obs"
    [
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "float kind" `Quick test_json_float_keeps_kind;
          Alcotest.test_case "nonfinite" `Quick test_json_nonfinite_is_null;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "error offsets" `Quick test_json_error_offsets;
          Alcotest.test_case "nonfinite roundtrip" `Quick
            test_json_nonfinite_roundtrip;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "int edges" `Quick test_json_int_edges;
          QCheck_alcotest.to_alcotest json_int_prints_as_string_of_int;
          Alcotest.test_case "write_int = string_of_int at table edges" `Quick
            test_write_int_table_edges;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled noop" `Quick test_trace_disabled_noop;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "attrs/exceptions" `Quick
            test_trace_attrs_and_exceptions;
          Alcotest.test_case "stop clears" `Quick test_trace_stop_clears;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
          Alcotest.test_case "summary" `Quick test_trace_summary;
          Alcotest.test_case "spans carry trace_id" `Quick
            test_trace_spans_carry_trace_id;
          Alcotest.test_case "summary alignment" `Quick
            test_trace_summary_alignment;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "mint" `Quick test_trace_context_mint;
          Alcotest.test_case "seeded" `Quick test_trace_context_seeded;
          Alcotest.test_case "roundtrip" `Quick test_trace_context_roundtrip;
          Alcotest.test_case "rejects" `Quick test_trace_context_rejects;
        ] );
      ( "log",
        [
          Alcotest.test_case "json record" `Quick test_log_json_record;
          Alcotest.test_case "logfmt record" `Quick test_log_logfmt_record;
          Alcotest.test_case "level filter" `Quick test_log_level_filter;
          Alcotest.test_case "warn once" `Quick test_log_warn_once;
          Alcotest.test_case "level parse" `Quick test_log_level_parse;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled noop" `Quick test_metrics_disabled_noop;
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram buckets" `Quick
            test_metrics_histogram_buckets;
          Alcotest.test_case "default buckets" `Quick
            test_metrics_default_buckets;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
          Alcotest.test_case "prometheus scalars" `Quick
            test_prometheus_counter_gauge;
          Alcotest.test_case "prometheus cumulative" `Quick
            test_prometheus_histogram_cumulative;
          Alcotest.test_case "prometheus empty histogram" `Quick
            test_prometheus_empty_histogram;
          Alcotest.test_case "latency buckets" `Quick
            test_latency_buckets_shape;
        ] );
      ( "routing",
        [
          Alcotest.test_case "instrumented route" `Quick
            test_routed_counters_consistent;
          Alcotest.test_case "hk counters pinned" `Quick test_hk_counters_pinned;
          Alcotest.test_case "every engine traced" `Quick
            test_every_engine_traced;
          Alcotest.test_case "naive route span config" `Quick
            test_naive_route_span_config;
        ] );
    ]
