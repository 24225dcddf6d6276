(** Set-associative cache timing model (LRU, write-allocate): hit/miss state
    only — data lives in {!Tce_vm.Mem}. Used for L1I, L1D and L2. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = private {
  line_bits : int;
  nsets : int;
  set_mask : int;  (** [nsets - 1] when a power of two, else -1 *)
  ways : int;
  tags : int array array;
  lru : int array array;
  mru : int array;  (** per set, the way last hit or filled *)
  mutable clock : int;
  stats : stats;
}

val create : size_kb:int -> ways:int -> line_bytes:int -> t

(** Access (and on miss, fill) the line containing the address; [true] on
    hit. *)
val access : t -> int -> bool

(** Insert a line without touching statistics — models allocation into a
    cache-resident nursery (DESIGN.md §5b). *)
val insert : t -> int -> unit

val hit_rate : t -> float
val reset_stats : t -> unit
