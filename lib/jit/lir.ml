(** LIR: the low-level instruction set the optimizing compiler emits and the
    cycle-level machine simulates. It is an idealized x86-64-like ISA with
    unlimited virtual integer and float registers, plus the paper's four new
    instructions (§4.2.1.2) and their special registers:

    - [MovClassID r]: regObjectClassId <- ClassID of the value in [r]
      (0xFF when [r] holds an SMI; otherwise read from the object's class
      word).
    - [MovClassIDArray (k, r)]: regArrayObjectClassId_k <- ClassID of the
      object in [r] (the object *containing* the elements array; hoistable
      out of loops, 4 registers available).
    - [StoreClassCache]: a store to an object property that also sends a
      request to the Class Cache in parallel with the L1 write. The memory
      unit recovers (ClassID, Line) from the first word of the written cache
      line and the slot from address bits 3-5; the stored value's ClassID
      comes from regObjectClassId.
    - [StoreClassCacheArray k]: ditto for a store into an elements array;
      (ClassID, Line, slot) are (regArrayObjectClassId_k, 0, 2).

    Compare-and-branch is a single instruction (Nehalem macro-fusion).
    Checks are *expanded* here — e.g. a Check Map is a [Load] of the class
    word plus a [Branch] to a [Deopt], both tagged [C_check] — so that
    category accounting (Figure 1/2) and the timing model both see the real
    instruction stream. *)

type reg = int  (** virtual integer register *)

type freg = int  (** virtual float (xmm) register *)

type label = int  (** instruction index within the function *)

type operand = Reg of reg | Imm of int

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

type cond =
  | Eq | Ne | Lt | Le | Gt | Ge
  | Bit_set  (** (ra land imm) <> 0 — Check SMI family *)
  | Bit_clear  (** (ra land imm) = 0 *)

type fcond =
  | FEq | FNe | FLt | FLe | FGt | FGe
  | FNlt | FNle | FNgt | FNge
      (** negated comparisons (true on unordered/NaN) — needed so that
          branch-negation preserves JS NaN semantics *)

(** Runtime-call stubs: executed functionally by the machine's runtime hook
    and charged a fixed cost (see {!Costs}). These model V8's runtime entry
    points / stub calls out of Crankshaft code. *)
type rt =
  | Rt_alloc_object of int * int  (** classid, reserve_props; result tagged *)
  | Rt_alloc_array of Tce_vm.Hidden_class.elements_kind * int  (** kind, capacity *)
  | Rt_box_double  (** farg -> new heap number *)
  | Rt_generic_get_prop of string
  | Rt_generic_set_prop of string
  | Rt_generic_get_elem
  | Rt_generic_set_elem
  | Rt_generic_binop of Tce_minijs.Ast.binop
  | Rt_generic_unop of Tce_minijs.Ast.unop
  | Rt_elem_store_slow  (** grow / extend / kind-transition store path *)
  | Rt_to_bool  (** generic ToBoolean: returns the true/false oddball *)
  | Rt_builtin of Builtins.t
  | Rt_fmod
  | Rt_trap of string  (** unconditional runtime error *)

type op =
  | MovImm of reg * int
  | Mov of reg * reg
  | Alu of alu * reg * reg * operand
  | Alu32 of alu * reg * reg * operand
      (** 32-bit form: result wraps to int32 (JS bitwise semantics) *)
  | AluOv of alu * reg * reg * operand * label
      (** ALU op + jump-on-overflow (int32 range) — a math assumption *)
  | Load of reg * reg * int  (** rd <- mem[rs + off] *)
  | CheckedLoad of reg * reg * int * int * int
      (** rd <- mem[rb + off] with the receiver's class word verified
          against the expected constant by hardware, in parallel with the
          load (the Checked Load baseline of Anderson et al., paper §2):
          (rd, rb, off, expected class word, deopt id). One instruction;
          the check is performed but never removed. *)
  | LoadIdx of reg * reg * reg * int  (** rd <- mem[rb + ri*8 + off] *)
  | Store of reg * int * operand  (** mem[rb + off] <- v *)
  | StoreIdx of reg * reg * int * operand  (** mem[rb + ri*8 + off] <- v *)
  | FMov of freg * freg
  | FMovImm of freg * float
  | FLoad of freg * reg * int  (** load a raw double word *)
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
  | CvtIF of freg * reg  (** cvtsi2sd: int -> double *)
  | TruncFI of reg * freg  (** cvttsd2si: double -> int32 (JS ToInt32 fast path) *)
  | Branch of cond * reg * operand * label
  | FBranch of fcond * freg * freg * label
  | Jmp of label
  | CallFn of int * reg array * reg * int
      (** guest call: func id, tagged args, result reg, deopt id (for
          on-stack replacement when this frame is invalidated mid-call) *)
  | CallRt of rt * reg array * freg array * reg option * freg option
      (** runtime call: int args, float args, optional tagged result,
          optional float result *)
  | CallRtChecked of rt * reg array * reg option * int
      (** a runtime call that can invalidate the *running* code (stores
          through slow paths may retire profiles this code speculates on):
          after the stub, deopt via the given id if this opt_id was
          invalidated *)
  | Ret of reg
  | Deopt of int  (** bail out to the interpreter (deopt metadata id) *)
  | MovClassID of reg
  | MovClassIDArray of int * reg
  | StoreClassCache of reg * int * operand * int
      (** base, off, value, deopt id (special stores are safepoints) *)
  | StoreClassCacheArray of int * reg * reg * int * operand * int
      (** k, base, index, off, value, deopt id *)
  | Profile of reg * int * int
      (** measurement pseudo-op (zero cost, not an instruction): records an
          object-load access for Figure 3. (receiver reg, line, pos); the
          receiver's ClassID is read functionally at runtime. *)
  | ProfileStore of reg * int * int * pstore
      (** measurement pseudo-op: feeds the monomorphism oracle for a
          property/elements store in mechanism-off code (where no Class
          Cache request exists). (receiver, line, pos, stored value). *)

and pstore = Ps_reg of reg | Ps_classid of int

type inst = { op : op; cat : Categories.t; flags : int }

let inst ?(flags = 0) cat op = { op; cat; flags }

(** How a bytecode register is materialized in optimized code. *)
type repr = R_tagged | R_double

type deopt_info = {
  bc_pc : int;  (** bytecode pc at which the interpreter resumes *)
  result_into : int option;
      (** when resuming *after* an op that produced a value mid-flight
          (calls), the bytecode register that receives it *)
  reason : Tce_attr.Reason.t;
      (** typed explanation: check kind × cause × site pc × classid —
          the source of truth; trace/report strings are renderings
          ([Tce_attr.Reason.to_string]/[describe]) *)
}

type func = {
  fn_id : int;  (** bytecode function id this code was compiled from *)
  opt_id : int;  (** unique id of this compilation (recompiles get fresh ids) *)
  name : string;
  code : inst array;
  deopts : deopt_info array;
  reprs : repr array;  (** static repr of each bytecode register *)
  n_regs : int;
  n_fregs : int;
  code_addr : int;  (** simulated address of the code (I-cache) *)
  spec_deps : (int * int * int) list;
      (** (classid, line, pos) Class List slots this code speculates on *)
  mutable invalidated : bool;
  mutable deopt_hits : int;  (** failed-check bails from this code *)
}

(* --- pretty printing (debugging, docs) --- *)

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "r%d" r
  | Imm i -> Fmt.pf ppf "$%d" i

let pp_cond ppf c =
  Fmt.string ppf
    (match c with
    | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
    | Bit_set -> "bset" | Bit_clear -> "bclr")

let pp_alu ppf a =
  Fmt.string ppf
    (match a with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
    | And -> "and" | Or -> "or"
    | Xor -> "xor" | Shl -> "shl" | Shr -> "shr" | Sar -> "sar")

let pp_op ppf = function
  | MovImm (r, i) -> Fmt.pf ppf "mov r%d, $%d" r i
  | Mov (d, s) -> Fmt.pf ppf "mov r%d, r%d" d s
  | Alu (a, d, s, o) -> Fmt.pf ppf "%a r%d, r%d, %a" pp_alu a d s pp_operand o
  | Alu32 (a, d, s, o) -> Fmt.pf ppf "%a32 r%d, r%d, %a" pp_alu a d s pp_operand o
  | AluOv (a, d, s, o, l) ->
    Fmt.pf ppf "%a.ov r%d, r%d, %a -> L%d" pp_alu a d s pp_operand o l
  | Load (d, b, off) -> Fmt.pf ppf "load r%d, [r%d%+d]" d b off
  | CheckedLoad (d, b, off, _, did) ->
    Fmt.pf ppf "load.chk r%d, [r%d%+d] #%d" d b off did
  | LoadIdx (d, b, i, off) -> Fmt.pf ppf "load r%d, [r%d+r%d*8%+d]" d b i off
  | Store (b, off, v) -> Fmt.pf ppf "store [r%d%+d], %a" b off pp_operand v
  | StoreIdx (b, i, off, v) -> Fmt.pf ppf "store [r%d+r%d*8%+d], %a" b i off pp_operand v
  | FMov (d, s) -> Fmt.pf ppf "fmov f%d, f%d" d s
  | FMovImm (d, f) -> Fmt.pf ppf "fmov f%d, $%g" d f
  | FLoad (d, b, off) -> Fmt.pf ppf "fload f%d, [r%d%+d]" d b off
  | FLoadIdx (d, b, i, off) -> Fmt.pf ppf "fload f%d, [r%d+r%d*8%+d]" d b i off
  | FStore (b, off, v) -> Fmt.pf ppf "fstore [r%d%+d], f%d" b off v
  | FStoreIdx (b, i, off, v) -> Fmt.pf ppf "fstore [r%d+r%d*8%+d], f%d" b i off v
  | FAdd (d, a, b) -> Fmt.pf ppf "fadd f%d, f%d, f%d" d a b
  | FSub (d, a, b) -> Fmt.pf ppf "fsub f%d, f%d, f%d" d a b
  | FMul (d, a, b) -> Fmt.pf ppf "fmul f%d, f%d, f%d" d a b
  | FDiv (d, a, b) -> Fmt.pf ppf "fdiv f%d, f%d, f%d" d a b
  | FSqrt (d, s) -> Fmt.pf ppf "fsqrt f%d, f%d" d s
  | FNeg (d, s) -> Fmt.pf ppf "fneg f%d, f%d" d s
  | FAbs (d, s) -> Fmt.pf ppf "fabs f%d, f%d" d s
  | CvtIF (d, s) -> Fmt.pf ppf "cvtif f%d, r%d" d s
  | TruncFI (d, s) -> Fmt.pf ppf "truncfi r%d, f%d" d s
  | Branch (c, r, o, l) -> Fmt.pf ppf "b.%a r%d, %a -> L%d" pp_cond c r pp_operand o l
  | FBranch (_, a, b, l) -> Fmt.pf ppf "fb f%d, f%d -> L%d" a b l
  | Jmp l -> Fmt.pf ppf "jmp L%d" l
  | CallFn (f, args, d, _) ->
    Fmt.pf ppf "call fn%d(%a) -> r%d" f
      Fmt.(array ~sep:(any ",") (fun ppf r -> Fmt.pf ppf "r%d" r))
      args d
  | CallRt (_, _, _, _, _) -> Fmt.pf ppf "callrt"
  | CallRtChecked (_, _, _, d) -> Fmt.pf ppf "callrt.checked #%d" d
  | Ret r -> Fmt.pf ppf "ret r%d" r
  | Deopt i -> Fmt.pf ppf "deopt #%d" i
  | MovClassID r -> Fmt.pf ppf "movclassid r%d" r
  | MovClassIDArray (k, r) -> Fmt.pf ppf "movclassidarray[%d] r%d" k r
  | StoreClassCache (b, off, v, _) ->
    Fmt.pf ppf "storecc [r%d%+d], %a" b off pp_operand v
  | StoreClassCacheArray (k, b, i, off, v, _) ->
    Fmt.pf ppf "storecca[%d] [r%d+r%d*8%+d], %a" k b i off pp_operand v
  | Profile (r, line, pos) -> Fmt.pf ppf "(profile r%d %d:%d)" r line pos
  | ProfileStore (r, line, pos, _) -> Fmt.pf ppf "(profile-store r%d %d:%d)" r line pos

let pp_inst ppf { op; cat; _ } =
  Fmt.pf ppf "%-40s ; %a" (Fmt.str "%a" pp_op op) Categories.pp cat

let pp_func ppf (f : func) =
  Fmt.pf ppf "fn %s (#%d, opt #%d): %d instrs@." f.name f.fn_id f.opt_id
    (Array.length f.code);
  Array.iteri (fun i inst -> Fmt.pf ppf "  L%-4d %a@." i pp_inst inst) f.code
