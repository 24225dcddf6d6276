(** Type-feedback vectors: the software inline-cache state the baseline tier
    collects and the optimizing compiler consumes (paper §3.2). Sites go
    uninitialized → monomorphic → polymorphic (≤ 4 shapes) → megamorphic. *)

type shape = {
  classid : int;  (** receiver hidden class *)
  slot : int;  (** word index of the property within the object *)
  transition_to : int option;
      (** store sites that add the property: ClassID after transition *)
}

type prop_ic =
  | Ic_uninit
  | Ic_mono of shape
  | Ic_poly of shape list  (** 2..4 shapes, most recent first *)
  | Ic_mega

type elem_ic = Eic_uninit | Eic_mono of int | Eic_poly of int list | Eic_mega

type binop_fb =
  | Bf_none
  | Bf_smi
  | Bf_number
  | Bf_string
  | Bf_ref  (** reference comparison: objects / booleans / null *)
  | Bf_generic

type site = S_prop of prop_ic | S_elem of elem_ic | S_binop of binop_fb

type t = site array

(** @raise Invalid_argument when the slot holds a different site kind. *)
val prop_of : site -> prop_ic

val elem_of : site -> elem_ic
val binop_of : site -> binop_fb

(** Recorders return [Some (from, to)] when the observation moved the
    site along the uninit -> mono -> poly -> mega lattice (fed to the
    observability layer as [Ic_transition] events), [None] otherwise. *)
val record_prop : t -> int -> shape -> (string * string) option

(** [record_prop] specialized to a transition-free shape: the
    monomorphic-hit path allocates nothing. *)
val record_prop_simple :
  t -> int -> classid:int -> slot:int -> (string * string) option

val record_elem : t -> int -> classid:int -> (string * string) option
val join_binop : binop_fb -> binop_fb -> binop_fb
val record_binop : t -> int -> binop_fb -> (string * string) option

(** [(monomorphic, polymorphic, megamorphic)] site counts. *)
val census : t -> int * int * int
