(** Dynamic-instruction categories — the paper's Figure 1 breakdown plus a
    bucket for the mechanism's own instructions. *)

type t =
  | C_check  (** Check Map / Check SMI / Check Non-SMI proper *)
  | C_taguntag  (** boxing/unboxing, including the checks guarding untags *)
  | C_math  (** math assumptions: SMI overflow, division guards *)
  | C_ccop  (** movClassID / movClassIDArray / special-store delta *)
  | C_other  (** the rest of the optimized code *)

val count : int
val index : t -> int

(** @raise Invalid_argument outside 0..4. *)
val of_index : int -> t

val name : t -> string
val pp : Format.formatter -> t -> unit

(** Instruction flag: this check verifies a value obtained from an object
    property / elements load (Figure 2's population). *)
val flag_guards_obj_load : int

(** Check kinds: the paper-figure bucket (Figures 10–12) a [C_check]
    instruction belongs to, packed into [flags] bits 2+ so per-kind check
    executions can be counted with zero new instruction state. *)
type check_kind = Ck_map | Ck_smi | Ck_non_smi | Ck_smi_convert | Ck_checked_load

val check_kind_count : int
val check_kind_index : check_kind -> int
val check_kind_name : check_kind -> string
val all_check_kinds : check_kind list

(** The flag bits encoding this kind (or-combine with the bit flags). *)
val flag_of_check_kind : check_kind -> int

(** 1-based counter slot from an instruction's flags: 0 when the
    instruction carries no kind tag, else [check_kind_index k + 1]. *)
val check_kind_slot : int -> int
