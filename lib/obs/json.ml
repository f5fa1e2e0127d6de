type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- printing *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest-exact float rendering that still parses back as a float: a
   pure-integer rendering gets ".0" appended so Float 5. does not come
   back as Int 5. *)
let float_to_buffer buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    let s =
      let shorter = Printf.sprintf "%.12g" f in
      if float_of_string shorter = f then shorter else s
    in
    Buffer.add_string buf s;
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end

(* The longest [string_of_int]: [min_int]'s sign and digits. *)
let max_int_bytes = String.length (string_of_int min_int)

let max_digits = max_int_bytes - 1

(* [string_of_int] without its C [caml_format_int] call, which costs
   several times the rest of an integer's rendering, and without an
   intermediate string.  Entry [v] of [digit_table], for [v] in
   [0, 999] (every vertex id of a grid up to 31x32), is four bytes:
   [string_of_int v] padded to three bytes, then its length.  Such a
   number is one 4-byte load and one 4-byte store, in place of two
   divisions and three checked byte stores; the store also writes the
   padding and the length past the digits, where the caller's next
   bytes go. *)
let digit_table =
  String.init 4000 (fun j ->
      let s = string_of_int (j / 4) and slot = j mod 4 in
      if slot = 3 then Char.chr (String.length s)
      else if slot < String.length s then s.[slot]
      else '\000')

external table_word : string -> int -> int32 = "%caml_string_get32u"
external store_word : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* A longer number is counted against -10, -100, ... and written least
   significant first from its end.  The digits are those of the
   non-positive magnitude [m], so [min_int] needs no special case. *)
let[@inline] digit d = Char.unsafe_chr (48 - d)

let rec digit_count m bound len =
  if len = max_digits || m > bound then len
  else digit_count m (bound * 10) (len + 1)

let rec write_digits b last m =
  let q = m / 10 in
  Bytes.unsafe_set b last (digit (m - (10 * q)));
  if q <> 0 then write_digits b (last - 1) q

(* One range check per number covers every store after it: the sign
   and the table's 4-byte word, or the sign and every digit. *)
let write_int b pos i =
  let m = if i < 0 then i else -i in
  let start = if i < 0 then pos + 1 else pos in
  if m > -1000 && pos >= 0 && start + 4 <= Bytes.length b then begin
    if i < 0 then Bytes.unsafe_set b pos '-';
    let entry = -4 * m in
    store_word b start (table_word digit_table entry);
    start + Char.code (String.unsafe_get digit_table (entry + 3))
  end
  else begin
    let stop = start + digit_count m (-10) 1 in
    if pos < 0 || stop > Bytes.length b then invalid_arg "Json.write_int";
    if i < 0 then Bytes.unsafe_set b pos '-';
    write_digits b (stop - 1) m;
    stop
  end

(* Per domain, so concurrent writers never share it. *)
let int_scratch = Domain.DLS.new_key (fun () -> Bytes.create max_int_bytes)

let add_int buf scratch i =
  Buffer.add_subbytes buf scratch 0 (write_int scratch 0 i)

let int_to_buffer buf i = add_int buf (Domain.DLS.get int_scratch) i

(* The scratch is looked up once per value, not once per [Int]: a lookup
   per integer made printing a 256-entry permutation about 20 % slower. *)
let to_buffer buf json =
  let scratch = Domain.DLS.get int_scratch in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf scratch i
    | Float f -> float_to_buffer buf f
    | String s -> escape_to buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun k item ->
            if k > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun k (key, item) ->
            if k > 0 then Buffer.add_char buf ',';
            escape_to buf key;
            Buffer.add_char buf ':';
            go item)
          fields;
        Buffer.add_char buf '}'
  in
  go json

let to_string json =
  let buf = Buffer.create 256 in
  to_buffer buf json;
  Buffer.contents buf

let to_channel oc json =
  output_string oc (to_string json);
  output_char oc '\n'

(* -------------------------------------------------------------- parsing *)

exception Parse_error of string

(* The value of the four hex digits of [s] at [i], or -1 if any of them
   is not one.  [int_of_string "0x..."] would also take OCaml's digit
   separator '_'. *)
let hex4 s i =
  let rec go k acc =
    if k = 4 then acc
    else
      match s.[i + k] with
      | '0' .. '9' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 87))
      | 'A' .. 'F' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 55))
      | _ -> -1
  in
  go 0 0

let of_string_exn' s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let code = hex4 s (!pos + 1) in
                if code < 0 then fail "bad \\u escape";
                pos := !pos + 4;
                (* A high surrogate followed by an escaped low surrogate is
                   one code point past U+FFFF.  Lone surrogates pass
                   through naively as their 3-byte encoding. *)
                let code =
                  if
                    code land 0xFC00 = 0xD800
                    && !pos + 6 < n
                    && s.[!pos + 1] = '\\'
                    && s.[!pos + 2] = 'u'
                  then
                    match hex4 s (!pos + 3) with
                    | low when low land 0xFC00 = 0xDC00 ->
                        pos := !pos + 6;
                        0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                    | _ -> code
                  else code
                in
                (* UTF-8 encode. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else if code < 0x10000 then begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            loop ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let first = !pos in
    let is_int = ref true in
    if !pos < n && s.[!pos] = '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if !pos < n && s.[!pos] = '.' then begin
      is_int := false;
      incr pos;
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      is_int := false;
      incr pos;
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
      digits ()
    end;
    let text = String.sub s first (!pos - first) in
    if !is_int then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    else Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> String (parse_string ())
      | '[' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = ']' then begin
            incr pos;
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while !pos < n && s.[!pos] = ',' do
              incr pos;
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | '{' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              (key, parse_value ())
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while !pos < n && s.[!pos] = ',' do
              incr pos;
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !fields)
          end
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  value

let of_string s =
  match of_string_exn' s with
  | value -> Ok value
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string_exn' s with
  | value -> value
  | exception Parse_error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List items -> Some items | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | String x, String y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | _ -> false
