(** Tagged machine words, V8-style (paper §3.3): an SMI has its least
    significant bit cleared and carries a 32-bit signed integer; a pointer
    has the bit set and carries a (word-aligned) byte address. A word is an
    OCaml [int]. *)

type t = int

val smi_min : int
val smi_max : int

(** Does the integer fit the 32-bit SMI payload? *)
val smi_fits : int -> bool

exception Smi_overflow

(** @raise Smi_overflow outside the SMI range. *)
val smi : int -> t

val is_smi : t -> bool
val smi_value : t -> int

(** @raise Invalid_argument on an unaligned address. *)
val ptr : int -> t

val is_ptr : t -> bool
val ptr_addr : t -> int

(** Truncate to int32 two's complement (JS bitwise semantics). *)
val to_int32 : int -> int

(** Truncate to uint32 (JS [>>>]). *)
val to_uint32 : int -> int

(** JS ToInt32 of a double; NaN/Inf/huge map to 0. The single definition
    shared by both execution tiers. *)
val js_to_int32_float : float -> int

val pp : Format.formatter -> t -> unit
