(** Hidden classes (V8 "maps", paper §3.1): immutable descriptors of object
    shape. Adding a named property transitions an object to a class that
    extends the old one; transitions are memoized so objects constructed the
    same way share a class. Arrays carry their elements kind in the class
    (packed SMI / double / tagged), like V8. *)

type elements_kind = E_smi | E_double | E_tagged

type kind =
  | K_object
  | K_array of elements_kind
  | K_number  (** boxed double (heap number) *)
  | K_string
  | K_boolean  (** oddball class shared by [true] and [false] *)
  | K_null
  | K_fixed_array  (** elements backing store *)

type t = {
  id : int;  (** ClassID: consecutive small integer, 0..0xfe *)
  desc_addr : int;  (** simulated address of the class descriptor *)
  kind : kind;
  name : string;
  prop_names : string array;  (** named properties in addition order *)
  prop_index : (string, int) Hashtbl.t;
  parent_id : int option;  (** the class this one transitioned from *)
  mutable transitions : (string * t) list;
}

val num_props : t -> int

(** Word index of a named property within objects of this class. *)
val slot_of_prop : t -> string -> int option

(** 64-byte lines objects of this class occupy. *)
val lines : t -> int

(** The class word stored in the first word of the given line. *)
val class_word : t -> line:int -> int

exception Too_many_classes

module Registry : sig
  type cls = t
  type t

  val create : Mem.t -> t
  val class_count : t -> int
  val find : t -> int -> cls option

  (** @raise Invalid_argument on an unknown ClassID. *)
  val find_exn : t -> int -> cls

  (** @raise Too_many_classes past the 8-bit ClassID space. *)
  val fresh :
    ?parent_id:int -> t -> kind:kind -> name:string -> prop_names:string array ->
    cls

  (** Memoized property-addition transition.
      @raise Invalid_argument when the property already exists. *)
  val transition : t -> cls -> string -> cls

  (** The shared array class of an elements kind. *)
  val array_class : t -> elements_kind -> cls

  (** Root class of object literals. *)
  val object_root_class : t -> cls

  val number_class : t -> cls
  val string_class : t -> cls
  val boolean_class : t -> cls
  val null_class : t -> cls
  val fixed_array_class : t -> cls

  (** All classes created so far, in id order. *)
  val all : t -> cls list
end
