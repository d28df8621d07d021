(* Minimal JSON tree, printer and parser.

   The observability layer emits two artifact kinds — Chrome trace-event
   files and metrics dumps — and the test suite parses them back, so
   both directions live here rather than pulling in an external JSON
   dependency. Numbers are printed with enough digits to round-trip a
   float exactly; parsing accepts any RFC 8259 document (no streaming,
   whole-string input, which is all the artifacts need). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* ---- Printing. ---- *)

(* The C primitive every Printf float conversion ends in: calling it
   with the format Printf would build gives the same bytes without
   interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

let hex_digits = "0123456789abcdef"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Strings with nothing to escape (every key, hash and label the
   service renders) are copied whole after one scan. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = n then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 !i;
    for j = !i to n - 1 do
      match String.unsafe_get s j with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]
      | c -> Buffer.add_char buf c
    done
  end;
  Buffer.add_char buf '"'

let float_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then format_float "%.1f" x
  else if Float.is_nan x then "null" (* JSON has no NaN *)
  else if x = infinity then "1e999"
  else if x = neg_infinity then "-1e999"
  else
    (* Shortest representation that round-trips. *)
    let s = format_float "%.15g" x in
    if float_of_string s = x then s else format_float "%.17g" x

(* With [indent], a line break and [2 * level] spaces; nothing without. *)
let break buf ~indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * level do
      Buffer.add_char buf ' '
    done
  end

let rec print_to buf ~indent ~level v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> Buffer.add_string buf (float_to_string x)
  | String s -> escape_to buf s
  | Raw s -> Buffer.add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    print_items buf ~indent ~level ~first:true items;
    break buf ~indent level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    print_fields buf ~indent ~level ~first:true fields;
    break buf ~indent level;
    Buffer.add_char buf '}'

and print_items buf ~indent ~level ~first = function
  | [] -> ()
  | item :: rest ->
    if not first then Buffer.add_char buf ',';
    break buf ~indent (level + 1);
    print_to buf ~indent ~level:(level + 1) item;
    print_items buf ~indent ~level ~first:false rest

and print_fields buf ~indent ~level ~first = function
  | [] -> ()
  | (k, item) :: rest ->
    if not first then Buffer.add_char buf ',';
    break buf ~indent (level + 1);
    escape_to buf k;
    Buffer.add_string buf (if indent then ": " else ":");
    print_to buf ~indent ~level:(level + 1) item;
    print_fields buf ~indent ~level ~first:false rest

let to_string ?(indent = false) v =
  let buf = Buffer.create 1024 in
  print_to buf ~indent ~level:0 v;
  Buffer.contents buf

let write path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~indent:true v);
      output_char oc '\n')

(* ---- Parsing. ---- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    && match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> cur.pos <- cur.pos + 1
  | _ -> error cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

(* Decode the rest of a string whose opening quote and escape-free
   prefix are already consumed (the prefix is in [buf]). *)
let parse_escaped cur buf =
  let rec loop () =
    if cur.pos >= String.length cur.s then error cur "unterminated string";
    let c = cur.s.[cur.pos] in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if cur.pos >= String.length cur.s then error cur "unterminated escape";
       let e = cur.s.[cur.pos] in
       cur.pos <- cur.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         if cur.pos + 4 > String.length cur.s then error cur "bad \\u escape";
         let hex = String.sub cur.s cur.pos 4 in
         cur.pos <- cur.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> error cur "bad \\u escape"
         in
         (* Encode the code point as UTF-8 (BMP only; surrogate pairs in
            the artifacts never occur — names are ASCII). *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> error cur "unknown escape");
      loop ()
    | c -> Buffer.add_char buf c; loop ()
  in
  loop ()

(* A string without escapes (every key and value a request carries) is
   one scan and one [String.sub]; the first backslash hands the rest to
   the escape-decoding loop. *)
let parse_string cur =
  expect cur '"';
  let s = cur.s and start = cur.pos in
  let i = ref start in
  while
    !i < String.length s
    && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i < String.length s && s.[!i] = '"' then begin
    cur.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf s start (!i - start);
    cur.pos <- !i;
    parse_escaped cur buf
  end

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos]
  do
    cur.pos <- cur.pos + 1
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> error cur (Printf.sprintf "bad number %S" text))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some '[' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some ']' then begin
      cur.pos <- cur.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        items := parse_value cur :: !items;
        skip_ws cur;
        match peek cur with
        | Some ',' -> cur.pos <- cur.pos + 1; loop ()
        | Some ']' -> cur.pos <- cur.pos + 1
        | _ -> error cur "expected ',' or ']'"
      in
      loop ();
      List (List.rev !items)
    end
  | Some '{' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some '}' then begin
      cur.pos <- cur.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        fields := (k, v) :: !fields;
        skip_ws cur;
        match peek cur with
        | Some ',' -> cur.pos <- cur.pos + 1; loop ()
        | Some '}' -> cur.pos <- cur.pos + 1
        | _ -> error cur "expected ',' or '}'"
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing garbage after value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ---- Accessors (for tests and consumers of parsed artifacts). ---- *)

(* [List.assoc_opt] with [String.equal] in place of the polymorphic
   compare: a request parse looks up a dozen keys. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_float = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_str = function String s -> Some s | _ -> None
