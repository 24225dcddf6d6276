(** A minimal JSON representation, emitter and parser (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --- *)

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

let float_to buf x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec emit ~indent ~level buf j =
  let nl lvl =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to 2 * lvl do
        Buffer.add_char buf ' '
      done
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> float_to buf x
  | Str s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        emit ~indent ~level:(level + 1) buf x)
      xs;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape_to buf k;
        Buffer.add_char buf ':';
        if indent then Buffer.add_char buf ' ';
        emit ~indent ~level:(level + 1) buf v)
      kvs;
    nl level;
    Buffer.add_char buf '}'

let to_buffer buf j = emit ~indent:false ~level:0 buf j

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 256 in
  emit ~indent:true ~level:0 buf j;
  Buffer.contents buf

(* --- parsing ---

   An index-based scanner over the input: bytes are tested in place with
   [String.unsafe_get] (every read is behind a bounds check on [st.n]),
   no [option] is allocated per byte, and a string without escapes is one
   [String.sub]. Error offsets are [st.pos] at the point of failure. *)

exception Parse_error of int * string

type st = { s : string; n : int; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))

let rec ws_end s n i =
  if i < n then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> ws_end s n (i + 1)
    | _ -> i
  else i

let skip_ws st = st.pos <- ws_end st.s st.n st.pos

let at st c = st.pos < st.n && String.unsafe_get st.s st.pos = c

let expect st c =
  if at st c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let l = String.length word in
  if st.pos + l <= st.n && String.sub st.s st.pos l = word then begin
    st.pos <- st.pos + l;
    value
  end
  else fail st ("expected " ^ word)

(* offset of the first '"' or '\\' at or after [i], else [n] *)
let rec string_end s n i =
  if i < n then
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> string_end s n (i + 1)
  else n

(* the rest of a string that contains escapes, from [st.pos], appended
   to [buf] run by run *)
let rec escaped st buf =
  let stop = string_end st.s st.n st.pos in
  Buffer.add_substring buf st.s st.pos (stop - st.pos);
  st.pos <- stop;
  if stop >= st.n then fail st "unterminated string";
  st.pos <- stop + 1;
  if String.unsafe_get st.s stop = '"' then Buffer.contents buf
  else begin
    if st.pos >= st.n then fail st "unterminated escape";
    let e = String.unsafe_get st.s st.pos in
    st.pos <- st.pos + 1;
    (match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
      if st.pos + 4 > st.n then fail st "truncated \\u escape";
      let hex = String.sub st.s st.pos 4 in
      st.pos <- st.pos + 4;
      (* int_of_string, not a hand-rolled hex decoder: the accepted
         language (e.g. '_' separators) must not change *)
      let code =
        try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape"
      in
      (* keep it simple: BMP code points as UTF-8 *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    | _ -> fail st "bad escape");
    escaped st buf
  end

let parse_string st =
  expect st '"';
  let stop = string_end st.s st.n st.pos in
  if stop < st.n && String.unsafe_get st.s stop = '"' then begin
    let v = String.sub st.s st.pos (stop - st.pos) in
    st.pos <- stop + 1;
    v
  end
  else escaped st (Buffer.create 16)

let rec number_end s n i =
  if i < n then
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s n (i + 1)
    | _ -> i
  else i

(* [s.[i..stop)] holds a '.', 'e' or 'E': no [int_of_string] accepts it *)
let rec fractional s i stop =
  i < stop
  &&
  match String.unsafe_get s i with
  | '.' | 'e' | 'E' -> true
  | _ -> fractional s (i + 1) stop

let parse_number st =
  let start = st.pos in
  st.pos <- number_end st.s st.n start;
  let text = String.sub st.s start (st.pos - start) in
  match
    if fractional st.s start st.pos then None else int_of_string_opt text
  with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st ("bad number: " ^ text))

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.n then fail st "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else
      let first = parse_value st in
      List (items st [ first ])
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else
      let first = field st in
      Obj (fields st [ first ])
  | '0' .. '9' | '-' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

(* the items after the first, up to and including the ']' *)
and items st acc =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    let v = parse_value st in
    items st (v :: acc)
  end
  else if at st ']' then begin
    st.pos <- st.pos + 1;
    List.rev acc
  end
  else fail st "expected ',' or ']'"

and field st =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  (k, v)

and fields st acc =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    let kv = field st in
    fields st (kv :: acc)
  end
  else if at st '}' then begin
    st.pos <- st.pos + 1;
    List.rev acc
  end
  else fail st "expected ',' or '}'"

let of_string s =
  let st = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> st.n then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (off, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" off msg)

(* --- accessors --- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* --- decoding documents: a missing or mistyped field names itself, so a
   truncated or hand-edited file is diagnosable --- *)

let field name conv j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad or missing field %S" name)

(* Optional fields are the exception: absent, they keep the default that
   documents written before they existed imply; present, they must
   decode. *)
let optional name conv ~default j =
  match member name j with
  | None -> Ok default
  | Some v ->
    Option.to_result ~none:(Printf.sprintf "bad field %S" name) (conv v)

let list_of conv v =
  Option.bind (to_list v) (fun items ->
      let xs = List.filter_map conv items in
      if List.compare_lengths xs items = 0 then Some xs else None)

let int_at_least n v =
  Option.bind (to_int v) (fun i -> if i >= n then Some i else None)

let decode_all name dec xs =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match dec x with
      | Ok v -> go (i + 1) (v :: acc) rest
      | Error e -> Error (Printf.sprintf "%s[%d]: %s" name i e))
  in
  go 0 [] xs
