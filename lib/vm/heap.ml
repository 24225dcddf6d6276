(** The simulated heap: allocation and access primitives for MiniJS values
    living in simulated memory ([Mem]).

    Heap numbers and strings keep their payloads in OCaml-side tables (one
    word in the object holds the table index); their *addresses* and header
    words are real so the timing simulator sees genuine memory traffic.

    No collector: bump allocation only (see DESIGN.md). *)

type stats = {
  mutable objects_allocated : int;
  mutable object_bytes : int;
  mutable header_extra_bytes : int;
      (** bytes spent on line headers of lines >= 1 — the paper's §5.3.4
          "larger objects" overhead *)
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
  obj_capacity : Tce_support.Int_table.t;  (** object base addr -> allocated lines *)
  elem_capacity : Tce_support.Int_table.t;  (** elements base addr -> capacity (words) *)
  interned : (string, Value.t) Hashtbl.t;
  float_consts : Tce_support.Int_table.t;
      (** float-literal bits -> interned heap-number value (values are
          tagged pointers, never 0, so 0 doubles as the absent marker) *)
  stats : stats;
}

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let fresh_stats () =
  {
    objects_allocated = 0;
    object_bytes = 0;
    header_extra_bytes = 0;
    numbers_allocated = 0;
    strings_allocated = 0;
    elements_allocated = 0;
    elements_grows = 0;
  }

let alloc_oddball mem (c : Hidden_class.t) =
  let addr = Mem.allocate mem ~bytes:Layout.line_bytes ~align:Layout.line_bytes in
  Mem.store mem addr (Hidden_class.class_word c ~line:0);
  Value.ptr addr

let create () =
  let mem = Mem.create () in
  let reg = Hidden_class.Registry.create mem in
  (* Materialize the built-in classes in a fixed id order. *)
  let bool_c = Hidden_class.Registry.boolean_class reg in
  let null_c = Hidden_class.Registry.null_class reg in
  ignore (Hidden_class.Registry.number_class reg);
  ignore (Hidden_class.Registry.string_class reg);
  ignore (Hidden_class.Registry.fixed_array_class reg);
  let true_v = alloc_oddball mem bool_c in
  let false_v = alloc_oddball mem bool_c in
  let null_v = alloc_oddball mem null_c in
  {
    mem;
    reg;
    strs = Array.make 64 "";
    nstrs = 0;
    true_v;
    false_v;
    null_v;
    obj_capacity = Tce_support.Int_table.create ~size:1024 ();
    elem_capacity = Tce_support.Int_table.create ~size:1024 ();
    interned = Hashtbl.create 256;
    float_consts = Tce_support.Int_table.create ~size:64 ();
    stats = fresh_stats ();
  }

let bool_v t b = if b then t.true_v else t.false_v

(* --- class inspection --- *)

let class_of_addr t addr =
  let w = Mem.load t.mem addr in
  Hidden_class.Registry.find_exn t.reg (Layout.classid_of_class_word w)

(* Fast path: the ClassID is encoded in the class word itself
   (bits 48-55), and [Registry.find_exn] returns the class registered
   under exactly that id — so for any well-formed heap value, decoding the
   word is equivalent to the registry round-trip and skips it. *)
let classid_of t (v : Value.t) =
  if Value.is_smi v then Layout.smi_classid
  else Layout.classid_of_class_word (Mem.load t.mem (Value.ptr_addr v))

let is_null t v = v = t.null_v

(* --- heap numbers --- *)

let alloc_number t f : Value.t =
  t.stats.numbers_allocated <- t.stats.numbers_allocated + 1;
  let c = Hidden_class.Registry.number_class t.reg in
  (* Two words: class word + payload ([Fbits] encoding). Aligned to 16 to
     keep addresses well-formed; heap numbers are small and dense, like
     V8's. *)
  let addr = Mem.allocate t.mem ~bytes:16 ~align:16 in
  Mem.store t.mem addr (Hidden_class.class_word c ~line:0);
  Mem.store t.mem (addr + 8) (Fbits.of_float f);
  Value.ptr addr

let is_number t (v : Value.t) =
  (not (Value.is_smi v))
  && (class_of_addr t (Value.ptr_addr v)).Hidden_class.kind = Hidden_class.K_number

let number_value t (v : Value.t) =
  let addr = Value.ptr_addr v in
  Fbits.to_float (Mem.load t.mem (addr + 8))

(** Numeric value of an SMI or heap number. *)
let to_float t (v : Value.t) =
  if Value.is_smi v then float_of_int (Value.smi_value v) else number_value t v

(** Box a float: SMI when integral and in range (like V8 canonicalization
    of [Smi] results), heap number otherwise. The range test is performed
    on the float itself — [int_of_float] on a huge double is undefined. *)
let number t f : Value.t =
  if
    Float.is_integer f
    && f >= -2147483648.0
    && f <= 2147483647.0
    && not (f = 0.0 && 1.0 /. f < 0.0)
  then Value.smi (int_of_float f)
  else alloc_number t f

(** A float *literal* is materialized as an interned heap-number constant,
    never canonicalized to an SMI — double literals denote doubles (so a
    constructor seeding [this.x = 0.0] profiles the field as HeapNumber,
    like the double fields the paper's float benchmarks rely on). Computed
    results still canonicalize through {!number}. *)
let float_const t f : Value.t =
  let key = Fbits.of_float f in
  let cached = Tce_support.Int_table.find t.float_consts key 0 in
  if cached <> 0 then cached
  else begin
    let v = alloc_number t f in
    Tce_support.Int_table.set t.float_consts key v;
    v
  end

(* --- strings --- *)

let alloc_string t s : Value.t =
  t.stats.strings_allocated <- t.stats.strings_allocated + 1;
  if t.nstrs = Array.length t.strs then begin
    let a = Array.make (2 * t.nstrs) "" in
    Array.blit t.strs 0 a 0 t.nstrs;
    t.strs <- a
  end;
  let i = t.nstrs in
  t.strs.(i) <- s;
  t.nstrs <- i + 1;
  let c = Hidden_class.Registry.string_class t.reg in
  let addr = Mem.allocate t.mem ~bytes:24 ~align:8 in
  Mem.store t.mem addr (Hidden_class.class_word c ~line:0);
  Mem.store t.mem (addr + 8) i;
  (* length as a tagged SMI so optimized code can load it directly *)
  Mem.store t.mem (addr + 16) (Value.smi (String.length s));
  Value.ptr addr

(** All MiniJS strings are interned: equal contents share one heap object,
    so string equality in optimized code is a pointer compare. *)
let intern_string t s =
  match Hashtbl.find_opt t.interned s with
  | Some v -> v
  | None ->
    let v = alloc_string t s in
    Hashtbl.replace t.interned s v;
    v

let is_string t (v : Value.t) =
  (not (Value.is_smi v))
  && (class_of_addr t (Value.ptr_addr v)).Hidden_class.kind = Hidden_class.K_string

let string_value t (v : Value.t) =
  let addr = Value.ptr_addr v in
  t.strs.(Mem.load t.mem (addr + 8))

(* --- objects --- *)

(** Write class words into every allocated line of the object at [addr]. *)
let write_class_words t addr (c : Hidden_class.t) ~lines =
  for line = 0 to lines - 1 do
    Mem.store t.mem
      (addr + (line * Layout.line_bytes))
      (Hidden_class.class_word c ~line)
  done

(** Allocate an object of class [c] with room for [reserve_props] named
    properties (at least the class's current count). Slots are initialized
    to null; no elements array yet. *)
let alloc_object t (c : Hidden_class.t) ~reserve_props : Value.t =
  let nprops = max reserve_props (Hidden_class.num_props c) in
  let lines = Layout.lines_for_props nprops in
  let bytes = lines * Layout.line_bytes in
  let addr = Mem.allocate t.mem ~bytes ~align:Layout.line_bytes in
  t.stats.objects_allocated <- t.stats.objects_allocated + 1;
  t.stats.object_bytes <- t.stats.object_bytes + bytes;
  if lines > 1 then
    t.stats.header_extra_bytes <- t.stats.header_extra_bytes + ((lines - 1) * 8);
  write_class_words t addr c ~lines;
  (* Initialize all property slots to null and the reserved slots to 0. *)
  for line = 0 to lines - 1 do
    for pos = 1 to 7 do
      Mem.store t.mem (addr + (line * Layout.line_bytes) + (pos * 8)) t.null_v
    done
  done;
  Mem.store t.mem (addr + (Layout.elements_ptr_slot * 8)) 0;
  Mem.store t.mem (addr + (Layout.elements_len_slot * 8)) 0;
  Tce_support.Int_table.set t.obj_capacity addr lines;
  Value.ptr addr

let obj_lines t addr =
  match Tce_support.Int_table.find t.obj_capacity addr 0 with
  | 0 -> Hidden_class.lines (class_of_addr t addr)
  | l -> l

let is_object t (v : Value.t) =
  (not (Value.is_smi v))
  &&
  match (class_of_addr t (Value.ptr_addr v)).Hidden_class.kind with
  | Hidden_class.K_object | Hidden_class.K_array _ -> true
  | _ -> false

(** Load/store a named property at a known word slot. *)
let load_slot t (obj : Value.t) slot = Mem.load t.mem (Value.ptr_addr obj + (slot * 8))

let store_slot t (obj : Value.t) slot v =
  Mem.store t.mem (Value.ptr_addr obj + (slot * 8)) v

(** Transition [obj] to also hold property [name] (which must be absent) and
    store [v] there. Returns the slot written. *)
let define_prop t (obj : Value.t) name v =
  let addr = Value.ptr_addr obj in
  let c = class_of_addr t addr in
  if Hashtbl.mem c.Hidden_class.prop_index name then
    error "define_prop: %s already present on %s" name c.Hidden_class.name;
  let c' = Hidden_class.Registry.transition t.reg c name in
  let lines_needed = Hidden_class.lines c' in
  let cap = obj_lines t addr in
  if lines_needed > cap then
    error "object of class %s out of reserved property space (needs %d lines, has %d)"
      c'.Hidden_class.name lines_needed cap;
  write_class_words t addr c' ~lines:(max lines_needed 1);
  let slot = Layout.slot_of_prop_index (Hidden_class.num_props c' - 1) in
  store_slot t obj slot v;
  slot

(** Generic property read: [None] when the property is absent. *)
let get_prop t (obj : Value.t) name =
  let c = class_of_addr t (Value.ptr_addr obj) in
  match Hidden_class.slot_of_prop c name with
  | Some slot -> Some (load_slot t obj slot)
  | None -> None

(** Generic property write: stores in place when present, transitions when
    absent. Returns [(slot, transitioned)]. *)
let set_prop t (obj : Value.t) name v =
  let c = class_of_addr t (Value.ptr_addr obj) in
  match Hidden_class.slot_of_prop c name with
  | Some slot ->
    store_slot t obj slot v;
    (slot, false)
  | None -> (define_prop t obj name v, true)

(* --- elements arrays --- *)

let alloc_elements t ~capacity =
  t.stats.elements_allocated <- t.stats.elements_allocated + 1;
  let c = Hidden_class.Registry.fixed_array_class t.reg in
  let bytes = (Layout.elements_header_words + capacity) * 8 in
  let addr = Mem.allocate t.mem ~bytes ~align:8 in
  Mem.store t.mem addr (Hidden_class.class_word c ~line:0);
  Mem.store t.mem (addr + 8) capacity;
  for i = 0 to capacity - 1 do
    Mem.store t.mem (addr + Layout.elements_data_offset + (i * 8)) t.null_v
  done;
  Tce_support.Int_table.set t.elem_capacity addr capacity;
  addr

(** Allocate an array object of elements kind [ek] with [capacity] reserved
    element slots and length 0. *)
let alloc_array t ?(capacity = 4) ek : Value.t =
  let c = Hidden_class.Registry.array_class t.reg ek in
  let obj = alloc_object t c ~reserve_props:0 in
  let elems = alloc_elements t ~capacity:(max capacity 1) in
  store_slot t obj Layout.elements_ptr_slot elems;
  store_slot t obj Layout.elements_len_slot 0;
  obj

(** [array_new(n)] builtin: a pre-sized SMI array of length [n] filled with
    0 (MiniJS deviation from JS's holey undefined-fill, which keeps the
    elements kind meaningful; workloads initialize eagerly anyway). *)
let alloc_array_filled t n : Value.t =
  let obj = alloc_array t ~capacity:(max n 1) Hidden_class.E_smi in
  let elems = load_slot t obj Layout.elements_ptr_slot in
  for i = 0 to n - 1 do
    Mem.store t.mem (elems + Layout.elements_data_offset + (i * 8)) (Value.smi 0)
  done;
  store_slot t obj Layout.elements_len_slot (Value.smi n);
  obj

let elements_ptr t obj = load_slot t obj Layout.elements_ptr_slot

(* The elements length lives in the object's 4th word as a tagged SMI
   (paper §3.1 keeps it in the object), so optimized bounds checks are a
   plain load + compare. *)
let elements_len t obj = Value.smi_value (load_slot t obj Layout.elements_len_slot)
let set_elements_len t obj n = store_slot t obj Layout.elements_len_slot (Value.smi n)

let elements_capacity t elems_addr = Mem.load t.mem (elems_addr + 8)

let elem_addr elems_addr i = elems_addr + Layout.elements_data_offset + (i * 8)

(** Elements kind of any object: arrays carry it in their hidden class;
    plain objects (NodeList-style objects that also hold an elements array)
    always use tagged elements — their monomorphism is what the Class List's
    Prop2 profile captures. *)
let elements_kind t obj : Hidden_class.elements_kind =
  match (class_of_addr t (Value.ptr_addr obj)).Hidden_class.kind with
  | Hidden_class.K_array ek -> ek
  | _ -> Hidden_class.E_tagged

(** Read element [i]; out-of-bounds reads answer [null] (JS [undefined]).
    Double-kind arrays store raw [Fbits] payloads (V8's unboxed
    FixedDoubleArray); generic reads rebox them. *)
let elem_get t obj i =
  let len = elements_len t obj in
  if i < 0 || i >= len || elements_ptr t obj = 0 then t.null_v
  else
    let w = Mem.load t.mem (elem_addr (elements_ptr t obj) i) in
    match elements_kind t obj with
    | Hidden_class.E_double -> number t (Fbits.to_float w)
    | _ -> w

(** Grow the backing store to at least [min_capacity]; copies elements. *)
let grow_elements t obj ~min_capacity =
  t.stats.elements_grows <- t.stats.elements_grows + 1;
  let old = elements_ptr t obj in
  let old_cap = elements_capacity t old in
  let cap = max min_capacity (old_cap + (old_cap / 2) + 16) in
  let fresh = alloc_elements t ~capacity:cap in
  let len = elements_len t obj in
  for i = 0 to len - 1 do
    Mem.store t.mem (elem_addr fresh i) (Mem.load t.mem (elem_addr old i))
  done;
  store_slot t obj Layout.elements_ptr_slot fresh

(** Elements kind required to store [v] without transition. *)
let elements_kind_of_value t (v : Value.t) : Hidden_class.elements_kind =
  if Value.is_smi v then Hidden_class.E_smi
  else if is_number t v then Hidden_class.E_double
  else Hidden_class.E_tagged

let join_elements_kind a b : Hidden_class.elements_kind =
  match (a, b) with
  | Hidden_class.E_smi, k | k, Hidden_class.E_smi -> k
  | E_double, E_double -> E_double
  | _ -> E_tagged

(** Transition an array object's hidden class to elements kind [ek'],
    converting the stored representation of existing elements
    (tagged smi <-> raw double <-> tagged). *)
let transition_elements_kind t obj ek' =
  let addr = Value.ptr_addr obj in
  let ek = elements_kind t obj in
  let elems = elements_ptr t obj in
  let len = elements_len t obj in
  (match (ek, ek') with
  | Hidden_class.E_smi, Hidden_class.E_double ->
    for i = 0 to len - 1 do
      let w = Mem.load t.mem (elem_addr elems i) in
      Mem.store t.mem (elem_addr elems i)
        (Fbits.of_float (float_of_int (Value.smi_value w)))
    done
  | Hidden_class.E_double, Hidden_class.E_tagged ->
    for i = 0 to len - 1 do
      let w = Mem.load t.mem (elem_addr elems i) in
      Mem.store t.mem (elem_addr elems i) (number t (Fbits.to_float w))
    done
  | Hidden_class.E_smi, Hidden_class.E_tagged -> ()  (* smis are tagged *)
  | a, b when a = b -> ()
  | _ -> error "invalid elements kind transition");
  let c' = Hidden_class.Registry.array_class t.reg ek' in
  write_class_words t addr c' ~lines:1

(** Representation of [v] as an element word of kind [ek]. *)
let elem_repr t ek (v : Value.t) =
  match ek with
  | Hidden_class.E_double ->
    if Value.is_smi v then Fbits.of_float (float_of_int (Value.smi_value v))
    else Fbits.of_float (number_value t v)
  | _ -> v

(** Write element [i], growing and transitioning kind as needed. Writes past
    the current length extend it (dense-array discipline: workloads only
    append or write in-bounds, like the paper's benchmarks). Returns [true]
    if a slow path (growth/extension/kind transition) ran. *)
let elem_set t obj i v =
  if i < 0 then error "negative array index %d" i;
  if elements_ptr t obj = 0 then begin
    (* Lazy elements allocation for plain objects. *)
    let elems = alloc_elements t ~capacity:(max (i + 1) 4) in
    store_slot t obj Layout.elements_ptr_slot elems
  end;
  let len = elements_len t obj in
  let slow = ref false in
  let ek = elements_kind t obj in
  let joined =
    match (class_of_addr t (Value.ptr_addr obj)).Hidden_class.kind with
    | Hidden_class.K_array _ -> join_elements_kind ek (elements_kind_of_value t v)
    | _ -> Hidden_class.E_tagged
  in
  if joined <> ek then begin
    slow := true;
    transition_elements_kind t obj joined
  end;
  let elems = elements_ptr t obj in
  let cap = elements_capacity t elems in
  if i >= cap then begin
    slow := true;
    grow_elements t obj ~min_capacity:(i + 1)
  end;
  let elems = elements_ptr t obj in
  Mem.store t.mem (elem_addr elems i) (elem_repr t joined v);
  if i >= len then begin
    slow := true;
    set_elements_len t obj (i + 1)
  end;
  !slow

(* --- truthiness & printing --- *)

let is_truthy t (v : Value.t) =
  if Value.is_smi v then Value.smi_value v <> 0
  else if v = t.false_v || v = t.null_v then false
  else if v = t.true_v then true
  else if is_number t v then number_value t v <> 0.0
  else if is_string t v then String.length (string_value t v) > 0
  else true

let display_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* Reads only: a run displays every bench() result, so showing a value
   must not allocate on the simulated heap. A double element is shown
   from its raw payload, which [elem_get] would box into a heap number. *)
let rec to_display_string t (v : Value.t) =
  if Value.is_smi v then string_of_int (Value.smi_value v)
  else if v = t.true_v then "true"
  else if v = t.false_v then "false"
  else if v = t.null_v then "null"
  else if is_number t v then display_float (number_value t v)
  else if is_string t v then string_value t v
  else
    let c = class_of_addr t (Value.ptr_addr v) in
    match c.Hidden_class.kind with
    | Hidden_class.K_array ek ->
      let len = elements_len t v in
      let show i =
        match ek with
        | Hidden_class.E_double when elements_ptr t v <> 0 ->
          let w = Mem.load t.mem (elem_addr (elements_ptr t v) i) in
          display_float (Fbits.to_float w)
        | _ -> to_display_string t (elem_get t v i)
      in
      let items = List.init (min len 16) show in
      let items = if len > 16 then items @ [ "..." ] else items in
      "[" ^ String.concat "," items ^ "]"
    | _ -> Printf.sprintf "[object %s]" c.Hidden_class.name
