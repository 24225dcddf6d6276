(** LIR: the low-level instruction set the optimizing compiler emits and the
    cycle-level machine simulates — an idealized x86-64-like ISA with
    unlimited virtual integer/float registers plus the paper's new
    instructions (§4.2.1.2) and special registers. Compare-and-branch is one
    instruction (macro-fusion); checks are *expanded* (a Check Map is a
    class-word [Load] plus a [Branch] to a [Deopt], both tagged
    {!Categories.C_check}), so category accounting and timing both see the
    real stream. *)

type reg = int
type freg = int
type label = int

type operand = Reg of reg | Imm of int

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

type cond =
  | Eq | Ne | Lt | Le | Gt | Ge
  | Bit_set  (** (ra land imm) <> 0 — the Check SMI family *)
  | Bit_clear

type fcond =
  | FEq | FNe | FLt | FLe | FGt | FGe
  | FNlt | FNle | FNgt | FNge  (** negated forms, true on NaN *)

(** Runtime-call stubs, executed functionally and charged via {!Costs}. *)
type rt =
  | Rt_alloc_object of int * int  (** classid, reserved props *)
  | Rt_alloc_array of Tce_vm.Hidden_class.elements_kind * int
  | Rt_box_double
  | Rt_generic_get_prop of string
  | Rt_generic_set_prop of string
  | Rt_generic_get_elem
  | Rt_generic_set_elem
  | Rt_generic_binop of Tce_minijs.Ast.binop
  | Rt_generic_unop of Tce_minijs.Ast.unop
  | Rt_elem_store_slow
  | Rt_to_bool
  | Rt_builtin of Builtins.t
  | Rt_fmod
  | Rt_trap of string

type op =
  | MovImm of reg * int
  | Mov of reg * reg
  | Alu of alu * reg * reg * operand
  | Alu32 of alu * reg * reg * operand  (** result wraps to int32 *)
  | AluOv of alu * reg * reg * operand * label
      (** ALU + jump-on-SMI-overflow — a math assumption *)
  | Load of reg * reg * int
  | CheckedLoad of reg * reg * int * int * int
      (** Checked Load baseline (paper §2): load with the receiver's class
          word verified in hardware — executed, never removed.
          (rd, rb, off, expected class word, deopt id) *)
  | LoadIdx of reg * reg * reg * int
  | Store of reg * int * operand
  | StoreIdx of reg * reg * int * operand
  | FMov of freg * freg
  | FMovImm of freg * float
  | FLoad of freg * reg * int
  | FLoadIdx of freg * reg * reg * int
  | FStore of reg * int * freg
  | FStoreIdx of reg * reg * int * freg
  | FAdd of freg * freg * freg
  | FSub of freg * freg * freg
  | FMul of freg * freg * freg
  | FDiv of freg * freg * freg
  | FSqrt of freg * freg
  | FNeg of freg * freg
  | FAbs of freg * freg
  | CvtIF of freg * reg
  | TruncFI of reg * freg  (** JS ToInt32 fast path *)
  | Branch of cond * reg * operand * label
  | FBranch of fcond * freg * freg * label
  | Jmp of label
  | CallFn of int * reg array * reg * int
      (** guest call; the deopt id supports on-stack replacement when this
          frame is invalidated during the call *)
  | CallRt of rt * reg array * freg array * reg option * freg option
  | CallRtChecked of rt * reg array * reg option * int
      (** a stub that can invalidate the *running* code: deopt after it if
          this opt_id was invalidated *)
  | Ret of reg
  | Deopt of int
  | MovClassID of reg  (** regObjectClassId <- ClassID of the value *)
  | MovClassIDArray of int * reg  (** regArrayObjectClassId_k <- ClassID *)
  | StoreClassCache of reg * int * operand * int
      (** store + parallel Class Cache request; (ClassID, Line) recovered
          from the written line's header, slot from address bits 3-5 *)
  | StoreClassCacheArray of int * reg * reg * int * operand * int
      (** ditto for elements; (ClassID, Line, slot) =
          (regArrayObjectClassId_k, 0, 2) *)
  | Profile of reg * int * int
      (** zero-cost measurement pseudo-op: object-load access (Figure 3) *)
  | ProfileStore of reg * int * int * pstore
      (** zero-cost: oracle feed for stores in mechanism-off code *)

and pstore = Ps_reg of reg | Ps_classid of int

type inst = { op : op; cat : Categories.t; flags : int }

val inst : ?flags:int -> Categories.t -> op -> inst

(** Static materialization of a bytecode register. *)
type repr = R_tagged | R_double

type deopt_info = {
  bc_pc : int;  (** bytecode pc at which the interpreter resumes *)
  result_into : int option;
      (** bytecode register receiving an in-flight value (calls) *)
  reason : Tce_attr.Reason.t;
      (** typed explanation: check kind × cause × site pc × classid —
          the source of truth; trace/report strings are renderings
          ([Tce_attr.Reason.to_string]/[describe]) *)
}

type func = {
  fn_id : int;
  opt_id : int;  (** unique per compilation *)
  name : string;
  code : inst array;
  deopts : deopt_info array;
  reprs : repr array;
  n_regs : int;
  n_fregs : int;
  code_addr : int;  (** simulated code address (I-cache) *)
  spec_deps : (int * int * int) list;
      (** (classid, line, pos) Class List slots this code speculates on *)
  mutable invalidated : bool;
  mutable deopt_hits : int;
}

val pp_func : Format.formatter -> func -> unit
