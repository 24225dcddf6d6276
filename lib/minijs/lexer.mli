(** Hand-rolled lexer for MiniJS (the sealed environment has no menhir or
    ocamllex preprocessing needs; a hand lexer keeps positions simple). *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | IDENT of string
  | KW of string
  | PUNCT of string  (** longest-match operators and delimiters *)
  | EOF

val pp_token : Format.formatter -> token -> unit

exception Error of string * Ast.pos

type t

val create : string -> t
val pos : t -> Ast.pos

(** Next token and its starting position. @raise Error on lexical errors. *)
val next : t -> token * Ast.pos

(** The whole source; the EOF token is included last. *)
val tokenize : string -> (token * Ast.pos) list
