(** ASCII tables and horizontal bar charts for the benchmark harness. *)

type align = Left | Right

val pad : align -> int -> string -> string

(** Auto-sized columns; first column left-aligned, the rest right-aligned. *)
val render : headers:string list -> string list list -> string

(** One [(label, value)] bar per row, scaled to [width] characters at [vmax]
    (computed from the data when omitted). *)
val bars : ?width:int -> ?vmax:float -> (string * float) list -> string

val pct : float -> string
val f2 : float -> string

(** [headers] and then [rows] as CSV lines; a field that holds a comma,
    a double quote or a newline is quoted, its quotes doubled. *)
val csv : headers:string list -> string list list -> string
