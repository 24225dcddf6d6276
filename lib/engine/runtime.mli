(** Value-level semantics of MiniJS operators and builtins, shared verbatim
    by the interpreter tier and the optimized tier's runtime stubs — the
    two tiers agree by construction. *)

exception Guest_error of string

(** @raise Guest_error on non-numbers. *)
val to_number : Tce_vm.Heap.t -> Tce_vm.Value.t -> float

(** JS ToInt32 (shared definition with the machine's TruncFI). *)
val to_int32 : Tce_vm.Heap.t -> Tce_vm.Value.t -> int

(** Feedback kind observed for one binop execution. *)
val observe :
  Tce_vm.Heap.t -> Tce_vm.Value.t -> Tce_vm.Value.t -> bool ->
  Tce_jit.Feedback.binop_fb

(** Evaluate a binary operator; also returns the feedback observation.
    @raise Guest_error on type errors (and on [LAnd]/[LOr], which compile to
    control flow). *)
val eval_binop :
  Tce_vm.Heap.t -> Tce_minijs.Ast.binop -> Tce_vm.Value.t -> Tce_vm.Value.t ->
  Tce_vm.Value.t * Tce_jit.Feedback.binop_fb

(** Allocation-free variant: writes the feedback observation into the
    caller-owned cell instead of pairing it with the result (the
    interpreter's per-binop fast path). Two SMI operands take exact
    integer paths, which give {!eval_binop_float}'s value, feedback and
    heap allocation. *)
val eval_binop_cell :
  Tce_vm.Heap.t -> Tce_minijs.Ast.binop -> Tce_vm.Value.t -> Tce_vm.Value.t ->
  Tce_jit.Feedback.binop_fb ref -> Tce_vm.Value.t

(** {!eval_binop_cell} without the SMI fast paths: numbers go through
    floats. The semantics the fast paths must reproduce. *)
val eval_binop_float :
  Tce_vm.Heap.t -> Tce_minijs.Ast.binop -> Tce_vm.Value.t -> Tce_vm.Value.t ->
  Tce_jit.Feedback.binop_fb ref -> Tce_vm.Value.t

val eval_unop :
  Tce_vm.Heap.t -> Tce_minijs.Ast.unop -> Tce_vm.Value.t -> Tce_vm.Value.t

type io = {
  out : Buffer.t;
  prng : Tce_support.Prng.t;
  trace : Tce_obs.Trace.t;  (** observability sink (heap-growth events) *)
}

(** The seed of [Math.random]'s generator. *)
val seed : int

val make_io : trace:Tce_obs.Trace.t -> io

(** Apply a builtin. (The engine intercepts [push] so its element store
    fires Class Cache events; this function is the plain semantics.) *)
val builtin_apply :
  Tce_vm.Heap.t -> io -> Tce_jit.Builtins.t -> Tce_vm.Value.t array ->
  Tce_vm.Value.t

(** Numeric payload for the float-register result path (0 for
    non-numbers). *)
val float_of_result : Tce_vm.Heap.t -> Tce_vm.Value.t -> float
