(** Cost model for code we do not simulate instruction-by-instruction:
    runtime stubs called from optimized code, and the baseline tier's
    generic code (our stand-in for Full Codegen output).

    All values are (instructions, cycles) pairs in the rough shape of the
    corresponding V8 paths; they are identical across mechanism-on/off
    configurations, so they dilute but never bias the comparison. *)

type cost = { instrs : int; cycles : int }

let c instrs cycles = { instrs; cycles }

(** Runtime stubs reachable from optimized code. *)
let rec rt_cost : Tce_jit.Lir.rt -> cost = function
  | Tce_jit.Lir.Rt_alloc_object (_, reserve) -> c (12 + (2 * reserve)) (10 + reserve)
  | Rt_alloc_array (_, cap) -> c (20 + min cap 64) (16 + (min cap 64 / 2))
  | Rt_box_double -> c 8 7
  | Rt_generic_get_prop _ -> c 30 26
  | Rt_generic_set_prop _ -> c 34 30
  | Rt_generic_get_elem -> c 24 20
  | Rt_generic_set_elem -> c 28 24
  | Rt_generic_binop _ -> c 40 34
  | Rt_generic_unop _ -> c 20 17
  | Rt_elem_store_slow -> c 60 50
  | Rt_to_bool -> c 10 9
  | Rt_builtin b -> builtin_cost b
  | Rt_fmod -> c 25 30
  | Rt_trap _ -> c 1 1

and builtin_cost : Tce_jit.Builtins.t -> cost = function
  | Tce_jit.Builtins.B_print -> c 200 180
  | B_sqrt -> c 3 18
  | B_abs | B_min | B_max | B_floor | B_ceil -> c 8 8
  | B_sin | B_cos | B_exp | B_log | B_pow -> c 40 60
  | B_random -> c 12 12
  | B_array_new -> c 30 26
  | B_push -> c 18 15
  | B_str_len -> c 8 7
  | B_char_code -> c 12 10
  | B_from_char_code -> c 30 26
  | B_substr -> c 60 50
  | B_str_eq -> c 30 26
  | B_assert_eq -> c 10 9

(** Per-bytecode-op cost of the baseline tier's generic code (Full Codegen:
    patched IC calls, boxed arithmetic through stubs, constant
    (re)tagging). [mechanism_store_extra] is added to property/element
    stores when the mechanism is on: the movClassID + special-store delta
    in generic code. *)
let baseline_op_instrs : Tce_jit.Bytecode.bc -> int = function
  | Tce_jit.Bytecode.LoadInt _ | LoadBool _ | LoadNull _ -> 2
  | LoadNum _ -> 6
  | LoadStr _ -> 4
  | Move _ -> 1
  | BinOp _ -> 24  (* IC stub call: type dispatch + op + boxing *)
  | UnOp _ -> 12
  | GetProp _ -> 14  (* patched IC call: check map + load *)
  | SetProp _ -> 16
  | GetElem _ -> 16
  | SetElem _ -> 18
  | GetGlobal _ -> 3
  | SetGlobal _ -> 3
  | NewObject _ -> 20
  | AllocCtor _ -> 16
  | NewArray (_, cap) -> 24 + min cap 64
  | Call (_, _, args) -> 10 + (2 * Array.length args)
  | CallB (_, b, _) -> (builtin_cost b).instrs + 6
  | New (_, _, args) -> 24 + (2 * Array.length args)
  | Jump _ -> 1
  | JumpIfFalse _ | JumpIfTrue _ -> 4  (* generic truthiness test *)
  | Return _ -> 3

(** Extra generic-code instructions per profiled store when the mechanism
    is on (movClassID / movClassIDArray + the special-store opcode). *)
let mechanism_store_extra = 2

(** Slow-path work charged inside the baseline tier. *)
let transition_instrs = 30
let deopt_transition_instrs = 120
