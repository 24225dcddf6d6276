(** Set-associative cache timing model (LRU, write-allocate): hit/miss state
    only — data lives in {!Tce_vm.Mem}. Used for L1I, L1D and L2. A way of
    a set is a slot [set * ways + way] of flat arrays. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = private {
  line_bits : int;
  nsets : int;
  set_mask : int;  (** [nsets - 1] when a power of two, else -1 *)
  ways : int;
  tags : int array;  (** per slot, the line held there; -1 = invalid *)
  lru : int array;  (** per slot, the clock of its last hit or fill *)
  ready : int array;  (** per slot, the line's fill-ready cycle; 0 after a fill *)
  mru : int array;  (** per set, the slot last hit or filled *)
  mutable clock : int;
  stats : stats;
}

val create : size_kb:int -> ways:int -> line_bytes:int -> t

(** Access (and on miss, fill) the line containing the address; [true] on
    hit. *)
val access : t -> int -> bool

(** {!access}, returning where the line now lives: its slot on a hit,
    [lnot slot] (< 0) on a miss, [slot] being the way it was filled into. *)
val access_slot : t -> int -> int

(** Insert a line without touching statistics — models allocation into a
    cache-resident nursery (DESIGN.md §5b). Returns the slot filled, or -1
    when the line was already resident. *)
val insert : t -> int -> int

(** The fill-ready cycle held by a slot. *)
val ready : t -> int -> int

(** Set the fill-ready cycle of a slot (of the line just filled there). *)
val set_ready : t -> int -> int -> unit

val hit_rate : t -> float
val reset_stats : t -> unit
