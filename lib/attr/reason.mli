(** Structured deopt/check reasons: the typed source of truth behind every
    reason the optimizer, machine, trace, and fault campaign report.

    A {!t} names the check {e kind} (which paper-figure bucket the guarding
    instruction belongs to), the {e cause} (why this particular deopt can
    fire), the bytecode {e site} pc (uniformly the pc of the faulting
    bytecode — the resume pc convention of [Lir.deopt_info.bc_pc] is a
    separate, semantic field), and the hidden-class id the speculation was
    about ([-1] when no class is involved).

    Strings are a {e rendering} of the variant: {!to_string} produces a
    canonical compact form that {!of_string} parses back losslessly
    (exhaustively tested in [test/test_attr.ml]), and {!describe} produces
    the human-readable sentence shown in traces and reports. *)

type access = A_load | A_store

type overflow = Ov_arith | Ov_ushr | Ov_negate | Ov_abs

type cold_site =
  | Cold_arith
  | Cold_prop_load
  | Cold_elem_load
  | Cold_prop_store
  | Cold_elem_store
  | Cold_ctor

type cc_site =
  | Cc_prop_store of { line : int; pos : int }
      (** a special property store broke the profiled slot *)
  | Cc_elem_store
  | Cc_elem_store_slow
  | Cc_generic_prop_store
  | Cc_generic_elem_store
  | Cc_push

type osr_site = Osr_call | Osr_ctor

type cause =
  | C_not_class  (** receiver's hidden class differs from the speculation *)
  | C_poly_ic of access  (** receiver matched none of the poly-IC shapes *)
  | C_not_number  (** value is neither SMI nor HeapNumber *)
  | C_not_heapnum
  | C_not_smi
  | C_inexact_int32  (** double value is not an exact int32 *)
  | C_overflow of overflow
  | C_div_inexact  (** zero divisor or inexact quotient *)
  | C_mod_zero
  | C_oob  (** element index out of range *)
  | C_cold of cold_site  (** feedback site never executed *)
  | C_cc of cc_site  (** a store retired a speculated profile *)
  | C_osr of osr_site  (** callee invalidated this code during the call *)

type kind =
  | K_check_map
  | K_check_smi
  | K_untag
  | K_smi_convert
  | K_checked_load
  | K_math
  | K_bounds
  | K_cc
  | K_cold
  | K_osr

type t = {
  kind : kind;
  cause : cause;
  pc : int;  (** bytecode pc of the faulting site (uniform convention) *)
  classid : int;  (** hidden class involved, [-1] when none *)
}

val make : ?classid:int -> kind -> cause -> pc:int -> t

val kind_of_name : string -> kind option
val all_kinds : kind list

(** Representative values of every cause constructor (parameterized causes
    appear once with fixed payloads) — for exhaustiveness-style tests and
    report legends. *)
val all_causes : cause list

val cause_of_name : string -> cause option

(** Canonical compact rendering, e.g.
    ["check-map:not-class@17#12"] or ["cc:cc-prop-store(0,3)@44#9"].
    Lossless: [of_string (to_string r) = Some r]. *)
val to_string : t -> string

val of_string : string -> t option

(** Human-readable sentence, e.g.
    ["check-map: receiver is not class 12 (pc 17)"] — what traces and
    [--explain] print. *)
val describe : t -> string

val to_json : t -> Tce_obs.Json.t

(** Total order (for stable report sorting). *)
val compare : t -> t -> int
