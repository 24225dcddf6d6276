(** Pre-decoded LIR: the flat, specialized instruction stream the machine's
    template compiler fuses into threaded closures (see
    lib/machine/README.md for the invariants).

    Decoding happens once per installed compilation ([Lir.func], keyed by
    its [opt_id]); the executor then never re-examines the [Lir.op] variant:

    - operand forms are resolved (separate [*_r] register and [*_i]
      immediate constructors — no [Lir.operand] match, no [operand_ready]
      dispatch per instruction);
    - the [Profile]/[ProfileStore] measurement pseudo-ops are split out
      behind one meta-bit test;
    - per-op constants are baked in: ALU/FP latencies, runtime-stub costs
      ([Costs.rt_cost] evaluated at decode time), pre-canonicalized float
      immediates, and the 64-bit-shift special form of [Alu];
    - everything {!Machine.count} needs (category index, check-kind
      slot, guard flag, load/store/branch/fp class) is packed into one
      int per pc ({!meta} bits). A step's dispatch port is not: the
      constructor fixes it. *)

open Tce_jit

(** {1 Packed per-pc metadata} *)

(* bits 0-2: Categories index; bits 3-5: check-kind slot; bit 6:
   guards-obj-load flag; bits 7-9: counter class; bit 12: measurement
   pseudo-op. *)

let meta_cat_mask = 0x7
let meta_check_shift = 3
let meta_guards_bit = 0x40
let meta_class_shift = 7
let meta_pseudo_bit = 0x1000

(* counter classes (Machine.count's op-class breakdown) *)
let class_none = 0
let class_load = 1
let class_store = 2
let class_branch = 3
let class_fp = 4

(** {1 The specialized stream} *)

type pre =
  (* measurement pseudo-ops (meta_pseudo_bit set; zero timing cost) *)
  | Pprofile of int * int * int  (** receiver reg, line, pos *)
  | Pprofile_store_r of int * int * int * int  (** receiver, line, pos, value reg *)
  | Pprofile_store_c of int * int * int * int  (** receiver, line, pos, classid *)
  (* moves / integer ALU *)
  | Pmov_imm of int * int
  | Pmov of int * int
  | Palu_r of Lir.alu * int * int * int * int  (** op, latency, rd, rs, ro *)
  | Palu_i of Lir.alu * int * int * int * int  (** op, latency, rd, rs, imm *)
  | Psh64_r of int * int * int * int  (** 0=shl 1=shr 2=sar, rd, rs, ro *)
  | Psh64_i of int * int * int * int
  | Palu32_r of Lir.alu * int * int * int * int
  | Palu32_i of Lir.alu * int * int * int * int
  | Paluov_r of Lir.alu * int * int * int * int * int  (** op, lat, rd, rs, ro, target *)
  | Paluov_i of Lir.alu * int * int * int * int * int
  (* memory *)
  | Pload of int * int * int  (** rd, rb, off *)
  | Pchecked_load of int * int * int * int * int  (** rd, rb, off, expected, deopt *)
  | Pload_idx of int * int * int * int
  | Pfload of int * int * int
  | Pfload_idx of int * int * int * int
  | Pstore_r of int * int * int  (** rb, off, value reg *)
  | Pstore_i of int * int * int
  | Pstore_idx_r of int * int * int * int
  | Pstore_idx_i of int * int * int * int
  | Pfstore of int * int * int
  | Pfstore_idx of int * int * int * int
  (* floating point *)
  | Pfmov of int * int
  | Pfmov_imm of int * float  (** pre-canonicalized ([Fbits.canon]) *)
  | Pfadd of int * int * int
  | Pfsub of int * int * int
  | Pfmul of int * int * int
  | Pfdiv of int * int * int
  | Pfsqrt of int * int
  | Pfneg of int * int
  | Pfabs of int * int
  | Pcvtif of int * int
  | Ptruncfi of int * int
  (* control *)
  | Pbranch_r of Lir.cond * int * int * int  (** cond, r, ro, target *)
  | Pbranch_i of Lir.cond * int * int * int
  | Pfbranch of Lir.fcond * int * int * int
  | Pjmp of int
  | Pcall_fn of int * int array * int * int * int
      (** callee, arg regs, rd, deopt id, charged instrs (8 + 2·nargs) *)
  | Pcall_rt_chk of Lir.rt * int array * int * int * int * int
      (** rt, args, rd (-1 = none), deopt id, cost instrs, cost cycles *)
  | Pcall_rt of Lir.rt * int array * int array * int * int * int * int
      (** rt, args, fargs, rd (-1), fd (-1), cost instrs, cost cycles *)
  | Pret of int
  | Pdeopt of int
  (* the paper's new instructions *)
  | Pmov_classid of int
  | Pmov_classid_arr of int * int
  | Pstore_cc_r of int * int * int * int  (** rb, off, value reg, deopt id *)
  | Pstore_cc_i of int * int * int * int
  | Pstore_cca_r of int * int * int * int * int * int  (** k, rb, ri, off, vr, deopt *)
  | Pstore_cca_i of int * int * int * int * int * int

(** A decoded compilation: the original [Lir.func] (deopt metadata, reprs,
    code address, identity) plus the specialized stream and packed meta. *)
type func = { lf : Lir.func; ops : pre array; meta : int array }

(* Integer-ALU issue latency (identical to the reference executor's
   [alu_latency]). *)
let alu_latency (a : Lir.alu) =
  match a with Lir.Mul -> 3 | Div | Rem -> 20 | _ -> 1

let sh64_code = function
  | Lir.Shl -> 0
  | Lir.Shr -> 1
  | Lir.Sar -> 2
  | _ -> invalid_arg "Predecode.sh64_code"

let opt_reg = function Some r -> r | None -> -1

(** Decode one instruction to its specialized form plus packed meta. This is
    the single source of truth the executor runs; test/test_fastpath.ml
    checks it against independently-written expectations for every [Lir.op]
    constructor. *)
let decode_inst (inst : Lir.inst) : pre * int =
  let pre =
    match inst.Lir.op with
    | Lir.Profile (r, line, pos) -> Pprofile (r, line, pos)
    | ProfileStore (r, line, pos, Lir.Ps_reg vr) -> Pprofile_store_r (r, line, pos, vr)
    | ProfileStore (r, line, pos, Lir.Ps_classid c) -> Pprofile_store_c (r, line, pos, c)
    | MovImm (r, i) -> Pmov_imm (r, i)
    | Mov (rd, rs) -> Pmov (rd, rs)
    | Alu (((Lir.Shl | Shr | Sar) as a), rd, rs, Lir.Reg ro) ->
      Psh64_r (sh64_code a, rd, rs, ro)
    | Alu (((Lir.Shl | Shr | Sar) as a), rd, rs, Lir.Imm i) ->
      Psh64_i (sh64_code a, rd, rs, i)
    | Alu (a, rd, rs, Lir.Reg ro) -> Palu_r (a, alu_latency a, rd, rs, ro)
    | Alu (a, rd, rs, Lir.Imm i) -> Palu_i (a, alu_latency a, rd, rs, i)
    | Alu32 (a, rd, rs, Lir.Reg ro) -> Palu32_r (a, alu_latency a, rd, rs, ro)
    | Alu32 (a, rd, rs, Lir.Imm i) -> Palu32_i (a, alu_latency a, rd, rs, i)
    | AluOv (a, rd, rs, Lir.Reg ro, tgt) -> Paluov_r (a, alu_latency a, rd, rs, ro, tgt)
    | AluOv (a, rd, rs, Lir.Imm i, tgt) -> Paluov_i (a, alu_latency a, rd, rs, i, tgt)
    | Load (rd, rb, off) -> Pload (rd, rb, off)
    | CheckedLoad (rd, rb, off, expected, did) -> Pchecked_load (rd, rb, off, expected, did)
    | LoadIdx (rd, rb, ri, off) -> Pload_idx (rd, rb, ri, off)
    | FLoad (fd, rb, off) -> Pfload (fd, rb, off)
    | FLoadIdx (fd, rb, ri, off) -> Pfload_idx (fd, rb, ri, off)
    | Store (rb, off, Lir.Reg vr) -> Pstore_r (rb, off, vr)
    | Store (rb, off, Lir.Imm i) -> Pstore_i (rb, off, i)
    | StoreIdx (rb, ri, off, Lir.Reg vr) -> Pstore_idx_r (rb, ri, off, vr)
    | StoreIdx (rb, ri, off, Lir.Imm i) -> Pstore_idx_i (rb, ri, off, i)
    | FStore (rb, off, fv) -> Pfstore (rb, off, fv)
    | FStoreIdx (rb, ri, off, fv) -> Pfstore_idx (rb, ri, off, fv)
    | FMov (fd, fs) -> Pfmov (fd, fs)
    | FMovImm (fd, x) -> Pfmov_imm (fd, Tce_vm.Fbits.canon x)
    | FAdd (fd, fa, fb) -> Pfadd (fd, fa, fb)
    | FSub (fd, fa, fb) -> Pfsub (fd, fa, fb)
    | FMul (fd, fa, fb) -> Pfmul (fd, fa, fb)
    | FDiv (fd, fa, fb) -> Pfdiv (fd, fa, fb)
    | FSqrt (fd, fs) -> Pfsqrt (fd, fs)
    | FNeg (fd, fs) -> Pfneg (fd, fs)
    | FAbs (fd, fs) -> Pfabs (fd, fs)
    | CvtIF (fd, rs) -> Pcvtif (fd, rs)
    | TruncFI (rd, fs) -> Ptruncfi (rd, fs)
    | Branch (c, r, Lir.Reg ro, tgt) -> Pbranch_r (c, r, ro, tgt)
    | Branch (c, r, Lir.Imm i, tgt) -> Pbranch_i (c, r, i, tgt)
    | FBranch (c, fa, fb, tgt) -> Pfbranch (c, fa, fb, tgt)
    | Jmp tgt -> Pjmp tgt
    | CallFn (callee, argr, rd, did) ->
      Pcall_fn (callee, argr, rd, did, 8 + (2 * Array.length argr))
    | CallRtChecked (rt, argr, rd, did) ->
      let c = Costs.rt_cost rt in
      Pcall_rt_chk (rt, argr, opt_reg rd, did, c.Costs.instrs, c.Costs.cycles)
    | CallRt (rt, argr, fargr, rd, fd) ->
      let c = Costs.rt_cost rt in
      Pcall_rt (rt, argr, fargr, opt_reg rd, opt_reg fd, c.Costs.instrs, c.Costs.cycles)
    | Ret r -> Pret r
    | Deopt did -> Pdeopt did
    | MovClassID r -> Pmov_classid r
    | MovClassIDArray (k, r) -> Pmov_classid_arr (k, r)
    | StoreClassCache (rb, off, Lir.Reg vr, did) -> Pstore_cc_r (rb, off, vr, did)
    | StoreClassCache (rb, off, Lir.Imm i, did) -> Pstore_cc_i (rb, off, i, did)
    | StoreClassCacheArray (k, rb, ri, off, Lir.Reg vr, did) ->
      Pstore_cca_r (k, rb, ri, off, vr, did)
    | StoreClassCacheArray (k, rb, ri, off, Lir.Imm i, did) ->
      Pstore_cca_i (k, rb, ri, off, i, did)
  in
  let opclass =
    match inst.Lir.op with
    | Lir.Load _ | LoadIdx _ | FLoad _ | FLoadIdx _ -> class_load
    | Store _ | StoreIdx _ | FStore _ | FStoreIdx _ | StoreClassCache _
    | StoreClassCacheArray _ ->
      class_store
    | Branch _ | FBranch _ | Jmp _ -> class_branch
    | FAdd _ | FSub _ | FMul _ | FDiv _ | FSqrt _ | FNeg _ | FAbs _ | CvtIF _
    | TruncFI _ ->
      class_fp
    | _ -> class_none
  in
  let pseudo =
    match inst.Lir.op with
    | Lir.Profile _ | ProfileStore _ -> meta_pseudo_bit
    | _ -> 0
  in
  let meta =
    Categories.index inst.Lir.cat
    lor (Categories.check_kind_slot inst.Lir.flags lsl meta_check_shift)
    lor (if inst.Lir.flags land Categories.flag_guards_obj_load <> 0 then
           meta_guards_bit
         else 0)
    lor (opclass lsl meta_class_shift)
    lor pseudo
  in
  (pre, meta)

let decode (lf : Lir.func) : func =
  let n = Array.length lf.Lir.code in
  let ops = Array.make n (Pjmp 0) in
  let meta = Array.make n 0 in
  for i = 0 to n - 1 do
    let p, m = decode_inst lf.Lir.code.(i) in
    ops.(i) <- p;
    meta.(i) <- m
  done;
  { lf; ops; meta }
