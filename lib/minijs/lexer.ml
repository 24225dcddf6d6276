(** Hand-rolled lexer for MiniJS (menhir/ocamllex-free by design: the sealed
    environment has no menhir, and a hand lexer keeps error positions easy). *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | IDENT of string
  | KW of string  (** var function if else while for return new true false null this break continue *)
  | PUNCT of string  (** operators and delimiters, longest-match *)
  | EOF

let pp_token ppf = function
  | INT i -> Fmt.pf ppf "INT %d" i
  | FLOAT f -> Fmt.pf ppf "FLOAT %g" f
  | STRING s -> Fmt.pf ppf "STRING %S" s
  | IDENT s -> Fmt.pf ppf "IDENT %s" s
  | KW s -> Fmt.pf ppf "KW %s" s
  | PUNCT s -> Fmt.pf ppf "PUNCT %s" s
  | EOF -> Fmt.string ppf "EOF"

exception Error of string * Ast.pos

let keywords =
  [ "var"; "function"; "if"; "else"; "while"; "for"; "return"; "new";
    "true"; "false"; "null"; "this"; "break"; "continue" ]

(* Multi-character punctuation, longest first so matching is greedy. *)
let puncts3 = [ ">>>"; "===" ; "!==" ]
let puncts2 = [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+="; "-="; "*="; "/="; "++"; "--" ]
let puncts1 = [ "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "!"; "&"; "|"; "^"; "~";
                "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "."; "?"; ":" ]

type t = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
}

let create src = { src; off = 0; line = 1; bol = 0 }

let pos t : Ast.pos = { line = t.line; col = t.off - t.bol + 1 }

let peek_char t = if t.off < String.length t.src then Some t.src.[t.off] else None

let advance t =
  (match peek_char t with
  | Some '\n' ->
    t.line <- t.line + 1;
    t.bol <- t.off + 1
  | _ -> ());
  t.off <- t.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments t =
  match peek_char t with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance t;
    skip_ws_and_comments t
  | Some '/' when t.off + 1 < String.length t.src && t.src.[t.off + 1] = '/' ->
    while peek_char t <> None && peek_char t <> Some '\n' do advance t done;
    skip_ws_and_comments t
  | Some '/' when t.off + 1 < String.length t.src && t.src.[t.off + 1] = '*' ->
    let start = pos t in
    advance t; advance t;
    let rec close () =
      match peek_char t with
      | None -> raise (Error ("unterminated block comment", start))
      | Some '*' when t.off + 1 < String.length t.src && t.src.[t.off + 1] = '/' ->
        advance t; advance t
      | Some _ -> advance t; close ()
    in
    close ();
    skip_ws_and_comments t
  | _ -> ()

let lex_number t =
  let start = t.off in
  while (match peek_char t with Some c -> is_digit c | None -> false) do advance t done;
  let is_float = ref false in
  (match peek_char t with
  | Some '.' when t.off + 1 < String.length t.src && is_digit t.src.[t.off + 1] ->
    is_float := true;
    advance t;
    while (match peek_char t with Some c -> is_digit c | None -> false) do advance t done
  | _ -> ());
  (match peek_char t with
  | Some ('e' | 'E') ->
    is_float := true;
    advance t;
    (match peek_char t with Some ('+' | '-') -> advance t | _ -> ());
    while (match peek_char t with Some c -> is_digit c | None -> false) do advance t done
  | _ -> ());
  let text = String.sub t.src start (t.off - start) in
  if !is_float then FLOAT (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> INT i
    | None -> FLOAT (float_of_string text)

let lex_string t =
  let quote = t.src.[t.off] in
  let start = pos t in
  advance t;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char t with
    | None -> raise (Error ("unterminated string literal", start))
    | Some c when c = quote -> advance t
    | Some '\\' ->
      advance t;
      (match peek_char t with
      | Some 'n' -> Buffer.add_char buf '\n'; advance t
      | Some 't' -> Buffer.add_char buf '\t'; advance t
      | Some 'r' -> Buffer.add_char buf '\r'; advance t
      | Some '\\' -> Buffer.add_char buf '\\'; advance t
      | Some '0' -> Buffer.add_char buf '\000'; advance t
      | Some c -> Buffer.add_char buf c; advance t
      | None -> raise (Error ("unterminated escape", start)));
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance t;
      go ()
  in
  go ();
  STRING (Buffer.contents buf)

let try_punct t =
  let matches p =
    let n = String.length p in
    t.off + n <= String.length t.src && String.sub t.src t.off n = p
  in
  let rec find = function
    | [] -> None
    | p :: rest -> if matches p then Some p else find rest
  in
  match find puncts3 with
  | Some p -> Some p
  | None -> (
    match find puncts2 with
    | Some p -> Some p
    | None -> find puncts1)

(** Next token plus the position where it starts. *)
let next t : token * Ast.pos =
  skip_ws_and_comments t;
  let p = pos t in
  match peek_char t with
  | None -> (EOF, p)
  | Some c when is_digit c -> (lex_number t, p)
  | Some ('"' | '\'') -> (lex_string t, p)
  | Some c when is_ident_start c ->
    let start = t.off in
    while (match peek_char t with Some c -> is_ident_char c | None -> false) do advance t done;
    let text = String.sub t.src start (t.off - start) in
    if List.mem text keywords then (KW text, p) else (IDENT text, p)
  | Some c -> (
    match try_punct t with
    | Some pct ->
      for _ = 1 to String.length pct do advance t done;
      (PUNCT pct, p)
    | None -> raise (Error (Printf.sprintf "unexpected character %C" c, p)))

(** Tokenize the whole source (the EOF token is included last). *)
let tokenize src =
  let t = create src in
  let rec go acc =
    let tok, p = next t in
    match tok with EOF -> List.rev ((tok, p) :: acc) | _ -> go ((tok, p) :: acc)
  in
  go []
