(** Superinstruction-template layout: the pure basic-block analysis behind
    the machine's fused-closure executor (lib/machine/README.md, "Template
    fusion invariants"). The layout guarantees every control-flow successor
    is a block leader and that non-terminator instructions cannot leave
    their block, which is what makes the en-bloc counter summary exact. *)

(** Does this instruction end a basic block (branch, call, return, deopt
    point, Class Cache special store)? *)
val is_terminator : Predecode.pre -> bool

(** Static in-stream branch targets of an instruction (empty for
    non-branches and for exits that leave the function). *)
val targets : Predecode.pre -> int list

(** Can this terminator continue at [pc + 1]? False only for the three
    unconditional exits ([Pret], [Pdeopt], [Pjmp]). *)
val falls_through : Predecode.pre -> bool

(** The counts of a run of instructions: one per non-pseudo instruction,
    by its packed {!Predecode} meta (category, check kind, guard flag,
    counter class). *)
type summary = {
  s_by_cat : int array;  (** per-{!Tce_jit.Categories} dynamic instructions *)
  s_by_check : int array;  (** per-check-kind slot (slot 0 = unattributed) *)
  s_guards : int;
  s_loads : int;
  s_stores : int;
  s_branches : int;
  s_fp : int;
  s_pairs : int array;
      (** the nonzero counts above as flat [slot; delta] pairs, in slot
          order: the category slots, the check-kind slots, then guards,
          loads, stores, branches and fp *)
}

type block = {
  b_start : int;  (** leader pc *)
  b_len : int;  (** instruction count, terminator included *)
  b_terminated : bool;
      (** false: ends because the next pc is another leader; execution
          falls through to [b_start + b_len] *)
  b_sum : summary;
}

type t = {
  blocks : block array;
  block_of_pc : int array;  (** leader pc -> block index; -1 elsewhere *)
}

(** Summary of [len] instructions starting at [start] (exposed for the
    exhaustive per-constructor test). *)
val summarize : Predecode.func -> start:int -> len:int -> summary

(** [apply c s ~times] adds [times] × the summary's nonzero counts
    ([s_pairs]) to the counters. The executor counts the entries of each
    block while measuring and, when a run returns or raises, applies each
    entered block's summary once with [~times] = its entry count. *)
val apply : Counters.t -> summary -> times:int -> unit

(** The template layout, or the first rule the stream breaks, as an
    actionable text ("branch target 9 out of range at pc 2", "register r8
    out of range at pc 0", "no terminator at the end (pc 4)", ...). The
    rules: every branch target in the stream, a last instruction that
    does not continue at [pc + 1], and every register operand in range
    for its file (the fused closures use unchecked operand accesses). The
    machine refuses to install a rejected stream ({!Machine.Trap}). *)
val layout : Predecode.func -> (t, string) result
