(** Source-level pretty printer for MiniJS. [Parser.parse (print p)] must
    reproduce [p] up to [Ast.equal_program] — this roundtrip is a qcheck
    property in the test suite. *)

open Ast

let punct_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | BitAnd -> "&" | BitOr -> "|" | BitXor -> "^"
  | Shl -> "<<" | Shr -> ">>" | Ushr -> ">>>"
  | LAnd -> "&&" | LOr -> "||"

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp_expr ppf e =
  match e with
  | Int i -> if i < 0 then Fmt.pf ppf "(0 - %d)" (-i) else Fmt.int ppf i
  | Float f ->
    (* Keep a decimal point so the lexer reads it back as FLOAT. *)
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then Fmt.string ppf s
    else Fmt.pf ppf "%s.0" s
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | Bool b -> Fmt.bool ppf b
  | Null -> Fmt.string ppf "null"
  | This -> Fmt.string ppf "this"
  | Var x -> Fmt.string ppf x
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (punct_of_binop op) pp_expr b
  | Unop (Neg, a) -> Fmt.pf ppf "(-%a)" pp_expr a
  | Unop (Not, a) -> Fmt.pf ppf "(!%a)" pp_expr a
  | Unop (BitNot, a) -> Fmt.pf ppf "(~%a)" pp_expr a
  | PropGet (o, f) -> Fmt.pf ppf "%a.%s" pp_expr o f
  | ElemGet (a, i) -> Fmt.pf ppf "%a[%a]" pp_expr a pp_expr i
  | Call (f, args) -> Fmt.pf ppf "%s(%a)" f pp_args args
  | New (c, args) -> Fmt.pf ppf "(new %s(%a))" c pp_args args
  | ObjectLit fields ->
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s: %a" k pp_expr v))
      fields
  | ArrayLit es -> Fmt.pf ppf "[%a]" pp_args es
  | Cond (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

and pp_args ppf args = Fmt.list ~sep:(Fmt.any ", ") pp_expr ppf args

let rec pp_stmt ind ppf s =
  let pad = String.make (2 * ind) ' ' in
  match s with
  | Var_decl (x, e) -> Fmt.pf ppf "%svar %s = %a;\n" pad x pp_expr e
  | Assign (x, e) -> Fmt.pf ppf "%s%s = %a;\n" pad x pp_expr e
  | Prop_set (o, f, v) -> Fmt.pf ppf "%s%a.%s = %a;\n" pad pp_expr o f pp_expr v
  | Elem_set (a, i, v) -> Fmt.pf ppf "%s%a[%a] = %a;\n" pad pp_expr a pp_expr i pp_expr v
  | Expr e -> Fmt.pf ppf "%s%a;\n" pad pp_expr e
  | If (c, t, []) -> Fmt.pf ppf "%sif (%a) {\n%a%s}\n" pad pp_expr c (pp_block (ind + 1)) t pad
  | If (c, t, e) ->
    Fmt.pf ppf "%sif (%a) {\n%a%s} else {\n%a%s}\n" pad pp_expr c (pp_block (ind + 1)) t
      pad (pp_block (ind + 1)) e pad
  | While (c, b) -> Fmt.pf ppf "%swhile (%a) {\n%a%s}\n" pad pp_expr c (pp_block (ind + 1)) b pad
  | For (init, cond, step, b) ->
    let pp_simple ppf s =
      (* for-header statements: print without trailing ";\n" *)
      let text = Fmt.str "%a" (pp_stmt 0) s in
      let text = String.trim text in
      let text =
        if String.length text > 0 && text.[String.length text - 1] = ';' then
          String.sub text 0 (String.length text - 1)
        else text
      in
      Fmt.string ppf text
    in
    Fmt.pf ppf "%sfor (%a; %a; %a) {\n%a%s}\n" pad
      (Fmt.option pp_simple) init
      (Fmt.option pp_expr) cond
      (Fmt.option pp_simple) step
      (pp_block (ind + 1)) b pad
  | Return None -> Fmt.pf ppf "%sreturn;\n" pad
  | Return (Some e) -> Fmt.pf ppf "%sreturn %a;\n" pad pp_expr e
  | Break -> Fmt.pf ppf "%sbreak;\n" pad
  | Continue -> Fmt.pf ppf "%scontinue;\n" pad

and pp_block ind ppf b = List.iter (pp_stmt ind ppf) b

let pp_func ppf (f : func) =
  Fmt.pf ppf "function %s(%a) {\n%a}\n" f.name
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    f.params (pp_block 1) f.body

let pp_program ppf (p : program) =
  List.iter (fun f -> Fmt.pf ppf "%a\n" pp_func f) p.funcs;
  pp_block 0 ppf p.main

let to_string p = Fmt.str "%a" pp_program p

