(** The simulated heap: allocation and access primitives for MiniJS values
    in simulated memory. Heap numbers store their payloads as {!Fbits}
    words; strings keep contents in an OCaml-side table (headers and
    addresses are real, so the timing simulator sees genuine traffic).
    Bump allocation only — no collector (DESIGN.md). *)

type stats = {
  mutable objects_allocated : int;
  mutable object_bytes : int;
  mutable header_extra_bytes : int;
      (** bytes spent on line headers of lines >= 1 (paper §5.3.4) *)
  mutable numbers_allocated : int;
  mutable strings_allocated : int;
  mutable elements_allocated : int;
  mutable elements_grows : int;
}

type t = {
  mem : Mem.t;
  reg : Hidden_class.Registry.t;
  mutable strs : string array;
  mutable nstrs : int;
  true_v : Value.t;
  false_v : Value.t;
  null_v : Value.t;
  obj_capacity : Tce_support.Int_table.t;
  elem_capacity : Tce_support.Int_table.t;
  interned : (string, Value.t) Hashtbl.t;
  float_consts : Tce_support.Int_table.t;
  stats : stats;
}

exception Runtime_error of string

val create : unit -> t
val bool_v : t -> bool -> Value.t

(* --- class inspection --- *)

val class_of_addr : t -> int -> Hidden_class.t

(** ClassID of any value; SMIs answer {!Layout.smi_classid}. *)
val classid_of : t -> Value.t -> int

val is_null : t -> Value.t -> bool

(* --- numbers --- *)

val is_number : t -> Value.t -> bool
val number_value : t -> Value.t -> float

(** Numeric value of an SMI or heap number. *)
val to_float : t -> Value.t -> float

(** Box a float: SMI when integral and in range (V8 canonicalization),
    heap number otherwise. *)
val number : t -> float -> Value.t

(** Interned heap-number constant — float literals never become SMIs. *)
val float_const : t -> float -> Value.t

(* --- strings --- *)

(** All MiniJS strings are interned: content equality = pointer equality. *)
val intern_string : t -> string -> Value.t

val is_string : t -> Value.t -> bool
val string_value : t -> Value.t -> string

(* --- objects --- *)

(** Allocate an object with room for at least [reserve_props] named
    properties; slots initialized to null, no elements array. *)
val alloc_object : t -> Hidden_class.t -> reserve_props:int -> Value.t

val obj_lines : t -> int -> int
val is_object : t -> Value.t -> bool
val load_slot : t -> Value.t -> int -> Value.t

val get_prop : t -> Value.t -> string -> Value.t option

(** Store in place when present, transition when absent;
    returns [(slot, transitioned)]. *)
val set_prop : t -> Value.t -> string -> Value.t -> int * bool

(* --- elements arrays --- *)

val alloc_array : t -> ?capacity:int -> Hidden_class.elements_kind -> Value.t

(** [array_new n]: SMI array of length [n] filled with 0. *)
val alloc_array_filled : t -> int -> Value.t

val elements_ptr : t -> Value.t -> int
val elements_len : t -> Value.t -> int
val elements_capacity : t -> int -> int

(** Elements kind of any object (plain objects use tagged elements). *)
val elements_kind : t -> Value.t -> Hidden_class.elements_kind

(** Out-of-bounds reads answer null. *)
val elem_get : t -> Value.t -> int -> Value.t

(** Write element [i] (grow/extend/kind-transition as needed); [true] when a
    slow path ran. @raise Runtime_error on negative index. *)
val elem_set : t -> Value.t -> int -> Value.t -> bool

(* --- misc --- *)

val is_truthy : t -> Value.t -> bool
val to_display_string : t -> Value.t -> string
