(** AST -> register bytecode. Top-level [var]s become global cells; local
    temporaries are never shared across statements (SSA-flavored, which
    keeps register types stable for the optimizer). *)

exception Error of string

(** Compile a whole program; the top-level statements become a synthetic
    ["%main"] function. @raise Error on name-resolution problems. *)
val compile : Tce_minijs.Ast.program -> Bytecode.program

(** Parse + compile. *)
val compile_source : string -> Bytecode.program
