(** Object layout constants and encodings (paper §3.1, §4.2.1.3): 64-byte
    aligned objects whose every line carries [ClassID ‖ Line] in the top
    bytes of its first word; elements pointer and length in words 2 and 3;
    up to seven property slots per line. *)

val word_size : int
val line_bytes : int

(** Word 2 — also the elements-profile position in the Class List. *)
val elements_ptr_slot : int

(** Word 3. *)
val elements_len_slot : int

(** SMI sentinel ClassID (paper: [11111111]). *)
val smi_classid : int

val max_classid : int

(** Word index (from object base) of the [k]-th named property. *)
val slot_of_prop_index : int -> int

(** [(line, pos)] of a word index within an object. *)
val line_pos_of_slot : int -> int * int

(** 64-byte lines needed for [n] named properties. *)
val lines_for_props : int -> int

(** Class word: descriptor address in bits 0–47 (line 0 only), ClassID in
    bits 48–55, Line in bits 56–62.
    @raise Invalid_argument on out-of-range components. *)
val encode_class_word : desc_addr:int -> classid:int -> line:int -> int

val classid_of_class_word : int -> int
val line_of_class_word : int -> int
val desc_addr_of_class_word : int -> int

(** Slot position within a line from a byte address (bits 3–5, Fig. 4). *)
val slot_pos_of_addr : int -> int

(** Base address of the 64-byte line containing the address. *)
val line_base_of_addr : int -> int

val elements_header_words : int
val elements_data_offset : int
