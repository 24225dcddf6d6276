(** Value-level semantics of MiniJS operators and builtins, shared verbatim
    by the interpreter tier and the optimized tier's runtime stubs — the two
    tiers therefore agree by construction, and the differential tests
    (interpreter vs mixed-mode) pin that down. *)

open Tce_vm
open Tce_jit

exception Guest_error of string

let error fmt = Fmt.kstr (fun s -> raise (Guest_error s)) fmt

let is_numeric h v = Value.is_smi v || Heap.is_number h v

let to_number h v =
  if Value.is_smi v then float_of_int (Value.smi_value v)
  else if Heap.is_number h v then Heap.number_value h v
  else error "not a number: %s" (Heap.to_display_string h v)

(** JS ToInt32 on numeric values (one shared definition with the machine's
    TruncFI so both tiers agree exactly). *)
let to_int32 h v = Value.js_to_int32_float (to_number h v)

let to_display h v = Heap.to_display_string h v

(** The feedback kind observed for a binop execution. *)
let observe h a b result_smi : Feedback.binop_fb =
  if Value.is_smi a && Value.is_smi b && result_smi then Feedback.Bf_smi
  else if is_numeric h a && is_numeric h b then Feedback.Bf_number
  else if Heap.is_string h a && Heap.is_string h b then Feedback.Bf_string
  else if
    (not (is_numeric h a))
    && (not (is_numeric h b))
    && (not (Heap.is_string h a))
    && not (Heap.is_string h b)
  then Feedback.Bf_ref
  else Feedback.Bf_generic

(** Equality: numbers numerically, strings by content, references by
    identity, mixed kinds are unequal (strict-flavored; DESIGN.md notes the
    deviation from JS loose equality). *)
let values_equal h a b =
  if is_numeric h a && is_numeric h b then to_number h a = to_number h b
  else if Heap.is_string h a && Heap.is_string h b then
    Heap.string_value h a = Heap.string_value h b
  else a = b

(* The general path: every operand kind, numbers through floats. *)
let eval_binop_float h (op : Tce_minijs.Ast.binop) a b
    (fbc : Feedback.binop_fb ref) : Value.t =
  let num f =
    let r = Heap.number h f in
    fbc := observe h a b (Value.is_smi r);
    r
  in
  (* comparisons produce booleans; their operand feedback is smi/number by
     the operands alone (the V8 CompareIC), not by the (boolean) result *)
  let cmp_fb () =
    if Value.is_smi a && Value.is_smi b then Feedback.Bf_smi else observe h a b false
  in
  let bool_res r =
    fbc := cmp_fb ();
    Heap.bool_v h r
  in
  match op with
  | Tce_minijs.Ast.Add ->
    if Heap.is_string h a || Heap.is_string h b then begin
      let s = to_display h a ^ to_display h b in
      let r = Heap.intern_string h s in
      fbc :=
        (if Heap.is_string h a && Heap.is_string h b then Feedback.Bf_string
         else Feedback.Bf_generic);
      r
    end
    else num (to_number h a +. to_number h b)
  | Sub -> num (to_number h a -. to_number h b)
  | Mul -> num (to_number h a *. to_number h b)
  | Div -> num (to_number h a /. to_number h b)
  | Mod -> num (Float.rem (to_number h a) (to_number h b))
  | Lt | Le | Gt | Ge ->
    if Heap.is_string h a && Heap.is_string h b then begin
      let c = compare (Heap.string_value h a) (Heap.string_value h b) in
      let r =
        match op with
        | Tce_minijs.Ast.Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false
      in
      fbc := Feedback.Bf_string;
      Heap.bool_v h r
    end
    else begin
      let x = to_number h a and y = to_number h b in
      bool_res
        (match op with
        | Tce_minijs.Ast.Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | _ -> assert false)
    end
  | Eq -> bool_res (values_equal h a b)
  | Ne -> bool_res (not (values_equal h a b))
  | BitAnd | BitOr | BitXor | Shl | Shr | Ushr -> (
    let x = to_int32 h a and y = to_int32 h b in
    fbc :=
      (if Value.is_smi a && Value.is_smi b then Feedback.Bf_smi
       else Feedback.Bf_number);
    match op with
    | Tce_minijs.Ast.BitAnd -> Value.smi (Value.to_int32 (x land y))
    | BitOr -> Value.smi (Value.to_int32 (x lor y))
    | BitXor -> Value.smi (Value.to_int32 (x lxor y))
    | Shl -> Value.smi (Value.to_int32 (x lsl (y land 31)))
    | Shr -> Value.smi (Value.to_int32 (x asr (y land 31)))
    | Ushr ->
      let r = (x land 0xffff_ffff) lsr (y land 31) in
      Heap.number h (float_of_int r)
    | _ -> assert false)
  | LAnd | LOr -> error "logical binop must be compiled to control flow"

(* Out-cell variant: BinOp is the interpreter's hottest bytecode and the
   (value, feedback) result tuple was one minor allocation per executed
   binop. [fbc] is caller-owned and reused ([binop_fb] is all constant
   constructors, so the cell write never allocates).

   Two SMI operands take exact integer paths. An SMI payload is 32 bits,
   so sums, differences and comparisons are exact as floats too, and a
   product the float path would box as an SMI is exact as well: each
   integer path gives the float path's value and feedback and allocates
   nothing, as the float path does for an SMI result. Results outside the
   SMI range, a product of -0 (zero with a negative operand), [Ushr],
   [Div] and [Mod] take the float path. *)
let eval_binop_cell h (op : Tce_minijs.Ast.binop) a b
    (fbc : Feedback.binop_fb ref) : Value.t =
  if Value.is_smi a && Value.is_smi b then begin
    let x = Value.smi_value a and y = Value.smi_value b in
    let arith r =
      if Value.smi_fits r then begin
        fbc := Feedback.Bf_smi;
        Value.smi r
      end
      else eval_binop_float h op a b fbc
    in
    let cmp r =
      fbc := Feedback.Bf_smi;
      Heap.bool_v h r
    in
    let bits r =
      fbc := Feedback.Bf_smi;
      Value.smi (Value.to_int32 r)
    in
    match op with
    | Tce_minijs.Ast.Add -> arith (x + y)
    | Sub -> arith (x - y)
    | Mul ->
      let r = x * y in
      if r = 0 && (x < 0 || y < 0) then eval_binop_float h op a b fbc
      else arith r
    | Lt -> cmp (x < y)
    | Le -> cmp (x <= y)
    | Gt -> cmp (x > y)
    | Ge -> cmp (x >= y)
    | Eq -> cmp (x = y)
    | Ne -> cmp (x <> y)
    | BitAnd -> bits (x land y)
    | BitOr -> bits (x lor y)
    | BitXor -> bits (x lxor y)
    | Shl -> bits (x lsl (y land 31))
    | Shr -> bits (x asr (y land 31))
    | Ushr | Div | Mod | LAnd | LOr -> eval_binop_float h op a b fbc
  end
  else eval_binop_float h op a b fbc

let eval_binop h (op : Tce_minijs.Ast.binop) a b : Value.t * Feedback.binop_fb =
  let fbc = ref Feedback.Bf_smi in
  let v = eval_binop_cell h op a b fbc in
  (v, !fbc)

let eval_unop h (op : Tce_minijs.Ast.unop) a : Value.t =
  match op with
  | Tce_minijs.Ast.Neg -> Heap.number h (-.to_number h a)
  | Not -> Heap.bool_v h (not (Heap.is_truthy h a))
  | BitNot -> Value.smi (Value.to_int32 (lnot (to_int32 h a)))

(* --- builtins --- *)

type io = {
  out : Buffer.t;
  prng : Tce_support.Prng.t;
  trace : Tce_obs.Trace.t;  (** observability sink (heap-growth events) *)
}

let make_io ?(seed = 42) ?(trace = Tce_obs.Trace.null) () =
  { out = Buffer.create 1024; prng = Tce_support.Prng.create seed; trace }

let builtin_apply h io (b : Builtins.t) (args : Value.t array) : Value.t =
  let arg i = args.(i) in
  let numf i = to_number h (arg i) in
  match b with
  | Builtins.B_print ->
    Buffer.add_string io.out (to_display h (arg 0));
    Buffer.add_char io.out '\n';
    h.Heap.null_v
  | B_sqrt -> Heap.number h (sqrt (numf 0))
  | B_abs -> Heap.number h (Float.abs (numf 0))
  | B_floor -> Heap.number h (Float.floor (numf 0))
  | B_ceil -> Heap.number h (Float.ceil (numf 0))
  | B_sin -> Heap.number h (sin (numf 0))
  | B_cos -> Heap.number h (cos (numf 0))
  | B_exp -> Heap.number h (exp (numf 0))
  | B_log -> Heap.number h (log (numf 0))
  | B_pow -> Heap.number h (Float.pow (numf 0) (numf 1))
  | B_min -> Heap.number h (Float.min (numf 0) (numf 1))
  | B_max -> Heap.number h (Float.max (numf 0) (numf 1))
  | B_random -> Heap.number h (Tce_support.Prng.float io.prng)
  | B_array_new ->
    let n = int_of_float (numf 0) in
    if n < 0 then error "array_new: negative length";
    Heap.alloc_array_filled h n
  | B_push ->
    let a = arg 0 in
    if not (Heap.is_object h a) then error "push: not an array";
    let len = Heap.elements_len h a in
    let grew = Heap.elem_set h a len (arg 1) in
    if grew && Tce_obs.Trace.on io.trace then
      Tce_obs.Trace.emit io.trace
        (Tce_obs.Trace.Gc
           {
             heap_bytes = h.Heap.stats.Heap.object_bytes;
             grows = h.Heap.stats.Heap.elements_grows;
           });
    Value.smi (len + 1)
  | B_str_len -> Value.smi (String.length (Heap.string_value h (arg 0)))
  | B_char_code ->
    let s = Heap.string_value h (arg 0) in
    let i = Value.smi_value (arg 1) in
    if i < 0 || i >= String.length s then error "char_code: index out of range";
    Value.smi (Char.code s.[i])
  | B_from_char_code ->
    Heap.intern_string h (String.make 1 (Char.chr (to_int32 h (arg 0) land 0xff)))
  | B_substr ->
    let s = Heap.string_value h (arg 0) in
    let start = int_of_float (numf 1) and len = int_of_float (numf 2) in
    let start = max 0 (min start (String.length s)) in
    let len = max 0 (min len (String.length s - start)) in
    Heap.intern_string h (String.sub s start len)
  | B_str_eq ->
    Heap.bool_v h (Heap.string_value h (arg 0) = Heap.string_value h (arg 1))
  | B_assert_eq ->
    if not (values_equal h (arg 0) (arg 1)) then
      error "assert_eq failed: %s <> %s" (to_display h (arg 0)) (to_display h (arg 1));
    h.Heap.null_v

(** Numeric payload of a builtin/stub result for the float register path. *)
let float_of_result h v = if is_numeric h v then to_number h v else 0.0
