(** Simulated byte-addressable memory: a growable array of 8-byte words.
    Accesses must be word-aligned; addresses double as the physical
    addresses seen by the timing simulator's cache hierarchy. *)

type t = {
  mutable words : int array;
  mutable next_free : int;  (** bump pointer (byte address) *)
  base : int;
}

val create : ?base:int -> ?capacity_words:int -> unit -> t

(** @raise Invalid_argument on unaligned or below-base addresses. *)
val load : t -> int -> int

val store : t -> int -> int -> unit

(** Bump-allocate [bytes] aligned to [align] (a power of two); returns the
    byte address. No collector (see DESIGN.md). *)
val allocate : t -> bytes:int -> align:int -> int
