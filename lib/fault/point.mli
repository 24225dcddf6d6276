(** The named fault points of the injection campaign: exactly the surfaces
    the paper's verification mechanism depends on (Class Cache behaviour,
    Class List integrity, exception delivery, OSR transitions). *)

type t =
  | Cc_evict  (** forced Class Cache eviction before a lookup (timing only) *)
  | Cc_drop_update  (** a special store's profiling update is lost *)
  | Cl_flip_init  (** corrupted Class List entry: InitMap bit flipped *)
  | Cl_flip_valid  (** corrupted Class List entry: ValidMap bit flipped *)
  | Cl_flip_speculate  (** corrupted Class List entry: SpeculateMap bit flipped *)
  | Cc_spurious_exn
      (** spurious misspeculation exception on an intact slot (the victims
          deopt although the profile never broke) *)
  | Cc_delayed_exn
      (** the misspeculation exception is delivered [param] Class Cache
          accesses late instead of synchronously *)
  | Lost_deopt
      (** the FunctionList deopt notification is dropped entirely — a fault
          the paper's hardware cannot produce; must be *detected* *)
  | Osr_fail  (** an OSR transition fails once and is retried (timing only) *)

val all : t list

(** Dense index in [0, count): array-indexing key for per-point state. *)
val index : t -> int

val count : int

(** Stable CLI / report name, e.g. ["lost-deopt"]. *)
val name : t -> string

val of_name : string -> t option

(** One-line human description (campaign reports). *)
val describe : t -> string

val pp : Format.formatter -> t -> unit
