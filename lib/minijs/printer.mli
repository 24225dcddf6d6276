(** Source-level pretty printer. [Parser.parse (to_string p)] reproduces [p]
    up to [Ast.equal_program] — a qcheck property in the test suite. *)

val punct_of_binop : Ast.binop -> string
val pp_func : Format.formatter -> Ast.func -> unit
val to_string : Ast.program -> string
