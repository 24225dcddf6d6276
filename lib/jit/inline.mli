(** Bytecode-level function inlining (Crankshaft-style). [expand] builds a
    *shadow function*: the caller's bytecode with eligible direct calls and
    constructions replaced by remapped copies of the callee bodies and
    snapshots of their feedback. The optimizer compiles the shadow;
    deoptimizations resume the interpreter on it (single-frame
    reconstruction). Shadows are cached by the engine so post-deopt
    feedback learning survives recompilation. *)

(** Iterated to a bounded fixpoint (copied callees keep their own call
    sites). *)
val expand : Bytecode.program -> Bytecode.func -> Bytecode.func option
