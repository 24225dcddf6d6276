(** Dynamic-instruction categories, exactly the paper's Figure 1 breakdown
    plus one extra bucket for the mechanism's own instructions.

    - [C_check]: Check Map / Check SMI / Check Non-SMI operations proper.
    - [C_taguntag]: boxing/unboxing of numbers *including* the checking
      operations that guard an untag (the paper folds those into
      Tags/Untags; Figure 2 adds the guarding subset back in — we mark that
      subset with the [guards_obj_load] flag below).
    - [C_math]: math assumptions (SMI overflow, division by zero).
    - [C_ccop]: the new instructions our mechanism adds
      (movClassID/movClassIDArray and the special-store opcode delta) —
      overhead the paper discusses in §4.2.2/§5.3.
    - [C_other]: the rest of the optimized code. *)

type t = C_check | C_taguntag | C_math | C_ccop | C_other

let count = 5

let index = function
  | C_check -> 0
  | C_taguntag -> 1
  | C_math -> 2
  | C_ccop -> 3
  | C_other -> 4

let of_index = function
  | 0 -> C_check
  | 1 -> C_taguntag
  | 2 -> C_math
  | 3 -> C_ccop
  | 4 -> C_other
  | _ -> invalid_arg "Categories.of_index"

let name = function
  | C_check -> "Checks"
  | C_taguntag -> "Tags/Untags"
  | C_math -> "Math Assumptions"
  | C_ccop -> "Class Cache ops"
  | C_other -> "Other Optimized Code"

let pp ppf c = Fmt.string ppf (name c)

(** Per-instruction flags. *)

(** The instruction is a check (or untag-guard check) that verifies a value
    *obtained from an object property or elements array* — the overhead
    population of the paper's Figure 2. *)
let flag_guards_obj_load = 1

(** Check kinds: which paper-figure bucket (Figures 10–12) a [C_check]
    instruction belongs to. Encoded into [flags] bits 2+ (bit 0 holds
    {!flag_guards_obj_load}, bit 1 is unused) so the machine can count
    per-kind check executions without new instruction fields. *)

type check_kind = Ck_map | Ck_smi | Ck_non_smi | Ck_smi_convert | Ck_checked_load

let check_kind_count = 5

let check_kind_index = function
  | Ck_map -> 0
  | Ck_smi -> 1
  | Ck_non_smi -> 2
  | Ck_smi_convert -> 3
  | Ck_checked_load -> 4

let check_kind_name = function
  | Ck_map -> "check-map"
  | Ck_smi -> "check-smi"
  | Ck_non_smi -> "check-non-smi"
  | Ck_smi_convert -> "smi-convert"
  | Ck_checked_load -> "checked-load"

let all_check_kinds = [ Ck_map; Ck_smi; Ck_non_smi; Ck_smi_convert; Ck_checked_load ]

(* Value 0 in bits 2+ means "unattributed", so kind k is stored as k+1. *)
let flag_of_check_kind k = (check_kind_index k + 1) lsl 2

(** 1-based slot for counter arrays: 0 = unattributed, 1..count = kinds. *)
let check_kind_slot flags =
  let v = flags lsr 2 in
  if v >= 1 && v <= check_kind_count then v else 0

