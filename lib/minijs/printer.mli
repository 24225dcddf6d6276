(** Source-level pretty printer. [Parser.parse (to_string p)] reproduces [p]
    up to [Ast.equal_program] — a qcheck property in the test suite. *)

val punct_of_binop : Ast.binop -> string
val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : int -> Format.formatter -> Ast.stmt -> unit
val pp_block : int -> Format.formatter -> Ast.block -> unit
val pp_func : Format.formatter -> Ast.func -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val to_string : Ast.program -> string
