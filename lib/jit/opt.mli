(** The optimizing compiler ("Crankshaft" stand-in, paper §3.2/§4.3):
    bytecode + inline-cache feedback
    -> forward type/provenance/constant fixpoint over the bytecode CFG
    -> LIR with explicit, categorized check instructions.

    With the mechanism enabled, the Class List is consulted: loads from
    profiled-monomorphic slots produce *typed* values, so downstream
    Check Map / Check SMI / Check Non-SMI operations and untag guards are
    never emitted (§4.3.1–§4.3.3), and the code registers speculation
    dependencies to be installed in the slots' FunctionLists. Stores to
    still-valid slots become movClassID + movStoreClassCache
    (movClassIDArray + movStoreClassCacheArray for elements, hoisted out of
    call-free loops), except stores the type lattice proves safe. *)

exception Bailout of string

(** The type lattice of the fixpoint. *)
type ty =
  | Any
  | Smi
  | Num  (** SMI or heap number *)
  | Cls of int  (** tagged pointer of known hidden class *)
  | Bool
  | Null
  | Str

type env = {
  prog : Bytecode.program;
  heap : Tce_vm.Heap.t;
  cl : Tce_core.Class_list.t;
  mechanism : bool;
  hoisting : bool;
  checked_load : bool;  (** Checked Load baseline (paper §2) *)
  fn : Bytecode.func;
  opt_id : int;
  code_addr : int;
  globals_base : int;
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): one
          removed/kept-with-cause entry per check site per compilation *)
}

(** Optimize [env.fn].
    @raise Bailout when the function cannot be usefully compiled. *)
val compile : env -> Lir.func
