(** The Class List (paper §4.2.1.1): the in-memory software structure backing
    the Class Cache.

    For every hidden class × 64-byte cache line it records, per property
    slot: whether the slot has ever been written ([InitMap]), whether all
    writes so far stored one single type ([ValidMap], one-way), whether
    optimized code relies on that ([SpeculateMap]), the profiled ClassID per
    slot ([Prop1]–[Prop7], [0xFF] = SMI), and the [FunctionList] of
    speculating code. Slot 2 of line 0 profiles the type of the objects
    inside the elements array (paper Table 1's Prop2).

    Entries are indexed by [ClassID ‖ Line] (2^16 entries) and live in one
    contiguous simulated-memory region so Class Cache misses are real memory
    traffic. *)

type entry = {
  mutable init_map : Tce_support.Bytemap.t;
  mutable valid_map : Tce_support.Bytemap.t;
  mutable speculate_map : Tce_support.Bytemap.t;
  props : int array;  (** length 8; positions 1..7 used *)
  func_lists : int list array;  (** per position: speculating opt-code ids *)
}

(** Hardware-geometry knob: how many property positions per line the Class
    List profiles. The paper's design tracks all 7; smaller values model a
    cheaper structure where positions above the limit stay fully checked.
    Must be in 1..7. *)
type config = { tracked_positions : int }

val default_config : config
(** [{ tracked_positions = 7 }] — the paper's geometry. *)

type t = {
  entries : entry option array;  (** 2^16, lazily materialized *)
  base_addr : int;  (** base of the region in simulated memory *)
  mem : Tce_vm.Mem.t;
  tracked : int;  (** positions 1..tracked are profiled; the rest are inert *)
  mutable parent_of : int -> int option;
      (** transition parent of a ClassID (set by the runtime; new entries
          inherit the parent's profiling state) *)
  mutable children_of : int -> int list;
      (** transition children of a ClassID (profile invalidations propagate
          to materialized descendants) *)
}

(** Bytes of simulated memory charged per entry. *)
val entry_bytes : int

val create : ?config:config -> Tce_vm.Mem.t -> t
(** @raise Invalid_argument if [tracked_positions] is outside 1..7. *)

val tracked : t -> int
(** How many positions per line this instance profiles. *)

val is_tracked : t -> pos:int -> bool
(** Is [pos] within this instance's profiled range (1..[tracked t])? *)

(** Simulated address of an entry (miss-traffic accounting). *)
val entry_addr : t -> classid:int -> line:int -> int

(** Materialize (or fetch) an entry; fresh entries inherit the transition
    parent's InitMap/ValidMap/Props. *)
val entry : t -> classid:int -> line:int -> entry

val find : t -> classid:int -> line:int -> entry option

(** Initialized and still valid: the compiler may speculate on this slot.
    Untracked positions (above [tracked t]) are never monomorphic. *)
val is_monomorphic : t -> classid:int -> line:int -> pos:int -> bool

(** ValidMap bit still set (uninitialized slots are vacuously valid; the
    paper emits special stores for any "still considered monomorphic"
    slot). Untracked positions are never valid — no special store is ever
    emitted for them. *)
val is_valid : t -> classid:int -> line:int -> pos:int -> bool

(** Like {!is_valid} but non-materializing (absent entries are vacuously
    valid): safe inside the engine's retire-path invariant check, which must
    not trigger lazy parent-inheritance. *)
val is_valid_peek : t -> classid:int -> line:int -> pos:int -> bool

(** Non-materializing view of the value class the Class List claims for a
    monomorphic slot, following the same transition-parent inheritance as
    materialization (nearest materialized ancestor's profile). [None] when
    no ancestor claims the slot initialized-and-valid. Lets the engine's
    retire-path invariant check cross-examine the claim against the
    ground-truth oracle. *)
val claimed_class_peek : t -> classid:int -> line:int -> pos:int -> int option

(** Fault injection only: flip one bit of one map of the (materialized)
    entry, modelling a corrupted or aliased Class List entry. *)
type map_id = Init_map | Valid_map | Speculate_map

val corrupt_flip :
  t -> classid:int -> line:int -> pos:int -> map:map_id -> unit

(** Profiled ClassID of a monomorphic slot ([0xFF] = SMI). *)
val profiled_class : t -> classid:int -> line:int -> pos:int -> int option

(** Register optimized code [fn] as depending on the slot: sets the
    SpeculateMap bit and appends to the FunctionList. *)
val add_speculation : t -> classid:int -> line:int -> pos:int -> fn:int -> unit

(** Drain the FunctionList and clear the SpeculateMap bit (the runtime's
    share of exception handling); returns the code ids to deoptimize. *)
val take_speculators : t -> classid:int -> line:int -> pos:int -> int list

(** Remove a discarded code id from every FunctionList. *)
val remove_function : t -> fn:int -> unit

type update_outcome =
  | First_profile  (** InitMap bit was 0: the type is recorded *)
  | Still_mono  (** stored type matches the profile *)
  | Now_polymorphic of { was_speculated : bool; exception_raised : bool }
      (** profile broken; exception iff the SpeculateMap bit was set *)
  | Already_poly  (** ValidMap bit was already 0 *)

(** The paper's Fig. 6 single-entry update for a store event.
    @raise Invalid_argument when [pos] is outside 1..[tracked t] — callers
    must gate untracked positions before reaching the Class Cache. *)
val update : t -> classid:int -> line:int -> pos:int -> value_classid:int ->
  update_outcome

(** Full store-event application: [update] on the store-time class plus
    propagation of the observed value class to materialized transition
    descendants. Returns the own-entry outcome and every speculating code id
    to deoptimize. *)
val apply : t -> classid:int -> line:int -> pos:int -> value_classid:int ->
  update_outcome * int list

(** Invalidate every profile naming [value_classid] (used when objects of
    that class mutate their hidden class in place, e.g. elements-kind
    transitions). Returns the speculators to deoptimize. *)
val retire_value_class : t -> value_classid:int -> int list

(** Render one entry like the paper's Table 1. *)
val pp_entry :
  class_name:(int -> string) -> fn_name:(int -> string) ->
  Format.formatter -> int * int * entry -> unit

(** All materialized entries as [(classid, line, entry)]. *)
val dump : t -> (int * int * entry) list
