(** Deterministic splitmix64 PRNG. All randomness in the repository flows
    through this, so every experiment run is exactly reproducible. *)

type t

val create : int -> t
val copy : t -> t
val next_int64 : t -> int64

(** Uniform in [0, bound); @raise Invalid_argument when [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform in [0, 1). *)
val float : t -> float

(** Bernoulli draw with probability [p]. *)
val chance : t -> float -> bool

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
