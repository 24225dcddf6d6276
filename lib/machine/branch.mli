(** Bimodal branch predictor: 2-bit saturating counters, one byte each,
    indexed by a hash of (code id, pc). *)

type stats = { mutable branches : int; mutable mispredicts : int }

type t = private { table : Bytes.t; mask : int; stats : stats }

val create : ?bits:int -> unit -> t

(** The counter of the branch at [pc] in code [fn]: a constant per static
    branch, so the executor computes it once, when it compiles the branch. *)
val index : t -> fn:int -> pc:int -> int

(** Record an executed conditional branch at counter [i] (an {!index});
    [true] when predicted correctly. *)
val record_at : t -> int -> taken:bool -> bool

(** [record t ~fn ~pc ~taken] is [record_at t (index t ~fn ~pc) ~taken]. *)
val record : t -> fn:int -> pc:int -> taken:bool -> bool

val reset_stats : t -> unit
