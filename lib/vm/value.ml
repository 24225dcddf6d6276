(** Tagged machine words, V8-style (paper §3.3):

    - an [SMI] (small integer) has its least-significant bit cleared and
      carries a 32-bit signed integer in the upper bits;
    - a [pointer] has its least-significant bit set and carries the byte
      address of a heap object in the remaining bits.

    A word is an OCaml [int] (63-bit), which comfortably holds both. *)

type t = int

let smi_min = -0x8000_0000
let smi_max = 0x7fff_ffff

(** Does [v] fit the 32-bit SMI payload? Arithmetic that overflows this
    range must box the result into a heap number (a "math assumption"
    guard in optimized code). *)
let smi_fits v = v >= smi_min && v <= smi_max

exception Smi_overflow

let smi v : t = if smi_fits v then v lsl 1 else raise Smi_overflow

let is_smi (t : t) = t land 1 = 0

let smi_value (t : t) = t asr 1

let ptr addr : t =
  if addr land 7 <> 0 then invalid_arg "Value.ptr: unaligned address";
  addr lor 1

let is_ptr (t : t) = t land 1 = 1

let ptr_addr (t : t) = t land lnot 1

(** Truncate to int32 two's complement (for bitwise ops, [x|0] idiom). *)
let to_int32 v =
  let m = v land 0xffff_ffff in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

(** Truncate to uint32 (for [>>>]). *)
let to_uint32 v = v land 0xffff_ffff

(** JS ToInt32 of a double. NaN/Inf/out-of-63-bit-range map to 0 (the spec
    maps them modulo 2^32; the engine uses this single definition in both
    tiers so they agree exactly). *)
let js_to_int32_float f =
  if Float.is_nan f || Float.abs f >= 9.2e18 then 0
  else to_int32 (int_of_float f)

let pp ppf (t : t) =
  if is_smi t then Fmt.pf ppf "smi:%d" (smi_value t)
  else Fmt.pf ppf "ptr:0x%x" (ptr_addr t)
