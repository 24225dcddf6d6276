(** A minimal JSON representation, emitter and parser.

    The observability layer must not pull heavyweight dependencies into the
    low layers of the engine, so this is a deliberately small, total JSON
    implementation: enough to render traces/metrics and to parse them back
    in tests and validators. Integers are kept distinct from floats so
    cycle counts round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace). NaN/infinite floats
    are rendered as [null] (JSON has no representation for them). *)
val to_string : t -> string

(** Rendering with newlines and two-space indentation (for files meant to
    be read by humans). *)
val to_string_pretty : t -> string

val to_buffer : Buffer.t -> t -> unit

(** Strict recursive-descent parser. Returns [Error msg] (with a byte
    offset in the message) instead of raising. *)
val of_string : string -> (t, string) result

(** [member k j] is the value of field [k] when [j] is an object. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option

(** [diff a b]: one [(path, in_a, in_b)] per place where the two
    documents differ, in [a]'s member order. Objects are compared member
    by member (an absent member counts as [Null]) and lists of equal
    length item by item, so a path reads [field], [outer.inner] or
    [items[2].field]; any other pair that differs is one entry. Equal
    documents give [[]]. *)
val diff : t -> t -> (string * t * t) list

(** {2 Decoding documents} *)

(** [field name conv j]: member [name] of [j] through [conv], or an error
    naming the field when it is missing or [conv] rejects it. *)
val field : string -> (t -> 'a option) -> t -> ('a, string) result

(** [optional name conv ~default j]: like {!field}, but an absent member
    is [default] (documents written before the field existed). A present
    member [conv] rejects is still an error naming the field. *)
val optional :
  string -> (t -> 'a option) -> default:'a -> t -> ('a, string) result

(** A JSON list all of whose items [conv] accepts, else [None]. *)
val list_of : (t -> 'a option) -> t -> 'a list option

(** A JSON integer [>= n], else [None]. *)
val int_at_least : int -> t -> int option

(** [decode_all name dec xs]: decode every item of list [name] in order;
    the first error wins, prefixed by the item's place ([name[i]: ...],
    counting from 0). *)
val decode_all :
  string -> ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
