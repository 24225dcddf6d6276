(* Tests for the VM substrate: tagging, layout, memory, hidden classes,
   heap objects and elements arrays. *)

open Tce_vm

(* --- value tagging --- *)

let test_smi_tagging () =
  Alcotest.(check int) "roundtrip" 42 (Value.smi_value (Value.smi 42));
  Alcotest.(check int) "negative" (-7) (Value.smi_value (Value.smi (-7)));
  Alcotest.(check bool) "is_smi" true (Value.is_smi (Value.smi 0));
  Alcotest.(check bool) "max fits" true (Value.smi_fits 0x7fff_ffff);
  Alcotest.(check bool) "min fits" true (Value.smi_fits (-0x8000_0000));
  Alcotest.(check bool) "max+1 rejected" false (Value.smi_fits 0x8000_0000);
  Alcotest.(check bool) "overflow raises" true
    (try ignore (Value.smi 0x8000_0000); false with Value.Smi_overflow -> true)

let test_ptr_tagging () =
  let p = Value.ptr 0x1000 in
  Alcotest.(check bool) "is_ptr" true (Value.is_ptr p);
  Alcotest.(check bool) "not smi" false (Value.is_smi p);
  Alcotest.(check int) "addr roundtrip" 0x1000 (Value.ptr_addr p);
  Alcotest.(check bool) "unaligned rejected" true
    (try ignore (Value.ptr 0x1001); false with Invalid_argument _ -> true)

let test_int32_wrap () =
  Alcotest.(check int) "positive" 5 (Value.to_int32 5);
  Alcotest.(check int) "wraps" (-2147483648) (Value.to_int32 0x8000_0000);
  Alcotest.(check int) "wraps 2^32" 0 (Value.to_int32 0x1_0000_0000);
  Alcotest.(check int) "uint32" 0xffff_ffff (Value.to_uint32 (-1))

let test_js_to_int32_float () =
  Alcotest.(check int) "nan" 0 (Value.js_to_int32_float Float.nan);
  Alcotest.(check int) "inf" 0 (Value.js_to_int32_float Float.infinity);
  Alcotest.(check int) "trunc" 3 (Value.js_to_int32_float 3.9);
  Alcotest.(check int) "trunc negative" (-3) (Value.js_to_int32_float (-3.9));
  Alcotest.(check int) "huge" 0 (Value.js_to_int32_float 1e30)

(* --- fbits --- *)

let prop_fbits_roundtrip =
  QCheck.Test.make ~name:"fbits: canon is idempotent and close" ~count:500
    QCheck.float (fun f ->
      QCheck.assume (Float.is_nan f |> not);
      let c = Fbits.canon f in
      Fbits.canon c = c
      && (f = 0.0 || Float.abs ((c -. f) /. f) < 1e-15 || c = f))

let test_fbits_specials () =
  Alcotest.(check (float 0.0)) "zero" 0.0 (Fbits.canon 0.0);
  Alcotest.(check (float 0.0)) "one" 1.0 (Fbits.canon 1.0);
  Alcotest.(check (float 0.0)) "negative" (-2.5) (Fbits.canon (-2.5));
  Alcotest.(check bool) "inf" true (Fbits.canon Float.infinity = Float.infinity);
  Alcotest.(check bool) "integers exact up to 2^51" true
    (Fbits.canon 1234567890123.0 = 1234567890123.0)

(* --- layout --- *)

let test_layout_slots () =
  (* line 0 named slots skip the class word and the two reserved words *)
  Alcotest.(check (list int)) "first five" [ 1; 4; 5; 6; 7 ]
    (List.map Layout.slot_of_prop_index [ 0; 1; 2; 3; 4 ]);
  (* property 5 begins line 1 *)
  Alcotest.(check int) "6th prop" 9 (Layout.slot_of_prop_index 5);
  Alcotest.(check int) "12th prop" 15 (Layout.slot_of_prop_index 11);
  Alcotest.(check int) "13th prop starts line 2" 17 (Layout.slot_of_prop_index 12);
  Alcotest.(check (pair int int)) "line/pos of slot 9" (1, 1)
    (Layout.line_pos_of_slot 9)

let test_layout_lines_for_props () =
  Alcotest.(check int) "0 props -> 1 line" 1 (Layout.lines_for_props 0);
  Alcotest.(check int) "5 props -> 1 line" 1 (Layout.lines_for_props 5);
  Alcotest.(check int) "6 props -> 2 lines" 2 (Layout.lines_for_props 6);
  Alcotest.(check int) "12 props -> 2 lines" 2 (Layout.lines_for_props 12);
  Alcotest.(check int) "13 props -> 3 lines" 3 (Layout.lines_for_props 13)

let test_layout_class_word () =
  let w = Layout.encode_class_word ~desc_addr:0xABCD00 ~classid:17 ~line:2 in
  Alcotest.(check int) "classid" 17 (Layout.classid_of_class_word w);
  Alcotest.(check int) "line" 2 (Layout.line_of_class_word w);
  Alcotest.(check int) "desc" 0xABCD00 (Layout.desc_addr_of_class_word w)

let test_layout_addr_decoding () =
  Alcotest.(check int) "slot pos from addr" 3 (Layout.slot_pos_of_addr 0x1018);
  Alcotest.(check int) "line base" 0x1000 (Layout.line_base_of_addr 0x1038);
  Alcotest.(check int) "line base exact" 0x1040 (Layout.line_base_of_addr 0x1040)

let prop_layout_slots_unique =
  QCheck.Test.make ~name:"layout: slots are unique and avoid reserved words"
    ~count:100 QCheck.unit (fun () ->
      let slots = List.init 40 Layout.slot_of_prop_index in
      List.length (List.sort_uniq compare slots) = 40
      && List.for_all
           (fun s ->
             let _, pos = Layout.line_pos_of_slot s in
             pos <> 0
             && not (s = Layout.elements_ptr_slot || s = Layout.elements_len_slot))
           slots)

(* --- memory --- *)

let test_mem_rw () =
  let m = Mem.create () in
  let a = Mem.allocate m ~bytes:64 ~align:64 in
  Alcotest.(check int) "aligned" 0 (a land 63);
  Mem.store m a 123;
  Mem.store m (a + 8) 456;
  Alcotest.(check int) "read back" 123 (Mem.load m a);
  Alcotest.(check int) "read back 2" 456 (Mem.load m (a + 8));
  Alcotest.(check bool) "unaligned rejected" true
    (try ignore (Mem.load m (a + 3)); false with Invalid_argument _ -> true)

let test_mem_bump_growth () =
  let m = Mem.create ~capacity_words:4 () in
  (* growth past the initial capacity must work *)
  let addrs = List.init 100 (fun _ -> Mem.allocate m ~bytes:64 ~align:64) in
  List.iteri (fun i a -> Mem.store m a i) addrs;
  List.iteri (fun i a -> Alcotest.(check int) "value" i (Mem.load m a)) addrs;
  Alcotest.(check bool) "addresses distinct" true
    (List.length (List.sort_uniq compare addrs) = 100)

(* --- hidden classes --- *)

let mk_heap () = Heap.create ()

let test_class_transitions_shared () =
  let h = mk_heap () in
  let reg = h.Heap.reg in
  let base = Hidden_class.Registry.fresh reg ~kind:Hidden_class.K_object ~name:"T" ~prop_names:[||] in
  let a1 = Hidden_class.Registry.transition reg base "x" in
  let a2 = Hidden_class.Registry.transition reg base "x" in
  Alcotest.(check bool) "transition memoized" true (a1 == a2);
  let b = Hidden_class.Registry.transition reg a1 "y" in
  Alcotest.(check int) "two props" 2 (Hidden_class.num_props b);
  Alcotest.(check (option int)) "slot of x" (Some 1) (Hidden_class.slot_of_prop b "x");
  Alcotest.(check (option int)) "slot of y" (Some 4) (Hidden_class.slot_of_prop b "y");
  Alcotest.(check (option int)) "parent link" (Some a1.Hidden_class.id)
    b.Hidden_class.parent_id

let test_class_ids_bounded () =
  let h = mk_heap () in
  let reg = h.Heap.reg in
  (* allocate classes up to the limit; the next must raise *)
  (try
     for i = 0 to 300 do
       ignore
         (Hidden_class.Registry.fresh reg ~kind:Hidden_class.K_object
            ~name:(Printf.sprintf "C%d" i) ~prop_names:[||])
     done;
     Alcotest.fail "expected Too_many_classes"
   with Hidden_class.Too_many_classes -> ());
  Alcotest.(check bool) "count within 8-bit id space" true
    (Hidden_class.Registry.class_count reg <= 256)

(* --- heap objects --- *)

let test_object_layout () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"P"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:9 in
  let addr = Value.ptr_addr o in
  Alcotest.(check int) "64-byte aligned" 0 (addr land 63);
  (* 9 props need 2 lines; both lines carry the ClassID/Line bytes *)
  let w0 = Mem.load h.Heap.mem addr in
  let w8 = Mem.load h.Heap.mem (addr + 64) in
  Alcotest.(check int) "line 0 classid" base.Hidden_class.id
    (Layout.classid_of_class_word w0);
  Alcotest.(check int) "line 1 classid" base.Hidden_class.id
    (Layout.classid_of_class_word w8);
  Alcotest.(check int) "line 1 line no" 1 (Layout.line_of_class_word w8);
  Alcotest.(check int) "line 0 desc addr" base.Hidden_class.desc_addr
    (Layout.desc_addr_of_class_word w0)

let test_define_and_get_props () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"P"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:4 in
  let slot, fresh = Heap.set_prop h o "x" (Value.smi 5) in
  Alcotest.(check bool) "first set transitions" true fresh;
  Alcotest.(check int) "x in slot 1" 1 slot;
  let slot2, fresh2 = Heap.set_prop h o "x" (Value.smi 6) in
  Alcotest.(check bool) "second set in place" false fresh2;
  Alcotest.(check int) "same slot" slot slot2;
  Alcotest.(check (option int)) "read x" (Some 6)
    (Option.map Value.smi_value (Heap.get_prop h o "x"));
  Alcotest.(check bool) "absent prop" true (Heap.get_prop h o "nope" = None);
  (* the object's class word was rewritten to the transitioned class *)
  let c = Heap.class_of_addr h (Value.ptr_addr o) in
  Alcotest.(check (option int)) "class has x" (Some 1) (Hidden_class.slot_of_prop c "x")

let test_object_capacity_guard () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"Tiny"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:0 in
  (* 1 line holds 5 named props; the 6th must fail (no GC to move objects) *)
  for i = 1 to 5 do
    ignore (Heap.set_prop h o (Printf.sprintf "p%d" i) (Value.smi i))
  done;
  Alcotest.(check bool) "overflow trapped" true
    (try ignore (Heap.set_prop h o "p6" (Value.smi 6)); false
     with Heap.Runtime_error _ -> true)

let test_heap_numbers () =
  let h = mk_heap () in
  let v = Heap.number h 3.25 in
  Alcotest.(check bool) "non-integral is boxed" true (Heap.is_number h v);
  Alcotest.(check (float 1e-9)) "payload" 3.25 (Heap.number_value h v);
  Alcotest.(check bool) "integral becomes smi" true (Value.is_smi (Heap.number h 7.0));
  Alcotest.(check bool) "big integral boxed" true
    (Heap.is_number h (Heap.number h 1e18));
  Alcotest.(check bool) "huge integral not smi-corrupted" true
    (Heap.to_float h (Heap.number h 4.2e20) = Fbits.canon 4.2e20);
  (* float literals always box *)
  Alcotest.(check bool) "float_const boxes 0.0" true
    (Heap.is_number h (Heap.float_const h 0.0));
  Alcotest.(check bool) "float_const interns" true
    (Heap.float_const h 2.5 = Heap.float_const h 2.5)

let test_strings_interned () =
  let h = mk_heap () in
  let a = Heap.intern_string h "hello" in
  let b = Heap.intern_string h "hello" in
  Alcotest.(check bool) "same pointer" true (a = b);
  Alcotest.(check string) "content" "hello" (Heap.string_value h a);
  Alcotest.(check int) "tagged length in word 2" 5
    (Value.smi_value (Mem.load h.Heap.mem (Value.ptr_addr a + 16)))

let test_elements_basic () =
  let h = mk_heap () in
  let a = Heap.alloc_array h Hidden_class.E_smi in
  Alcotest.(check int) "empty" 0 (Heap.elements_len h a);
  ignore (Heap.elem_set h a 0 (Value.smi 10));
  ignore (Heap.elem_set h a 1 (Value.smi 20));
  Alcotest.(check int) "len" 2 (Heap.elements_len h a);
  Alcotest.(check int) "get 0" 10 (Value.smi_value (Heap.elem_get h a 0));
  Alcotest.(check bool) "oob reads null" true (Heap.is_null h (Heap.elem_get h a 5));
  Alcotest.(check bool) "negative write traps" true
    (try ignore (Heap.elem_set h a (-1) (Value.smi 0)); false
     with Heap.Runtime_error _ -> true)

let test_elements_kind_transitions () =
  let h = mk_heap () in
  let a = Heap.alloc_array h Hidden_class.E_smi in
  ignore (Heap.elem_set h a 0 (Value.smi 1));
  Alcotest.(check bool) "starts smi" true
    (Heap.elements_kind h a = Hidden_class.E_smi);
  (* storing a double transitions to E_double and converts smis in place *)
  ignore (Heap.elem_set h a 1 (Heap.number h 2.5));
  Alcotest.(check bool) "now double" true
    (Heap.elements_kind h a = Hidden_class.E_double);
  Alcotest.(check (float 1e-9)) "smi converted" 1.0 (Heap.to_float h (Heap.elem_get h a 0));
  Alcotest.(check (float 1e-9)) "double stored" 2.5 (Heap.to_float h (Heap.elem_get h a 1));
  (* storing an object transitions to tagged and boxes doubles *)
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"O"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:0 in
  ignore (Heap.elem_set h a 2 o);
  Alcotest.(check bool) "now tagged" true
    (Heap.elements_kind h a = Hidden_class.E_tagged);
  Alcotest.(check (float 1e-9)) "double survives" 2.5
    (Heap.to_float h (Heap.elem_get h a 1));
  Alcotest.(check bool) "object element" true (Heap.elem_get h a 2 = o)

let test_elements_growth () =
  let h = mk_heap () in
  let a = Heap.alloc_array h ~capacity:2 Hidden_class.E_smi in
  for i = 0 to 99 do
    ignore (Heap.elem_set h a i (Value.smi (i * 3)))
  done;
  Alcotest.(check int) "len" 100 (Heap.elements_len h a);
  let ok = ref true in
  for i = 0 to 99 do
    if Value.smi_value (Heap.elem_get h a i) <> i * 3 then ok := false
  done;
  Alcotest.(check bool) "all values survive growth" true !ok;
  Alcotest.(check bool) "growth recorded" true (h.Heap.stats.elements_grows > 0)

let test_plain_object_elements () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object
      ~name:"NodeList" ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:2 in
  ignore (Heap.set_prop h o "count" (Value.smi 3));
  (* NodeList pattern: elements on a plain object, lazily allocated *)
  ignore (Heap.elem_set h o 0 (Value.smi 1));
  Alcotest.(check int) "element readable" 1 (Value.smi_value (Heap.elem_get h o 0));
  Alcotest.(check bool) "plain objects use tagged elements" true
    (Heap.elements_kind h o = Hidden_class.E_tagged);
  Alcotest.(check (option int)) "named props coexist" (Some 3)
    (Option.map Value.smi_value (Heap.get_prop h o "count"))

let test_truthiness () =
  let h = mk_heap () in
  Alcotest.(check bool) "0 falsy" false (Heap.is_truthy h (Value.smi 0));
  Alcotest.(check bool) "1 truthy" true (Heap.is_truthy h (Value.smi 1));
  Alcotest.(check bool) "null falsy" false (Heap.is_truthy h h.Heap.null_v);
  Alcotest.(check bool) "false falsy" false (Heap.is_truthy h h.Heap.false_v);
  Alcotest.(check bool) "true truthy" true (Heap.is_truthy h h.Heap.true_v);
  Alcotest.(check bool) "0.0 falsy" false (Heap.is_truthy h (Heap.float_const h 0.0));
  Alcotest.(check bool) "empty string falsy" false
    (Heap.is_truthy h (Heap.intern_string h ""));
  Alcotest.(check bool) "string truthy" true
    (Heap.is_truthy h (Heap.intern_string h "x"))

let test_display () =
  let h = mk_heap () in
  Alcotest.(check string) "smi" "42" (Heap.to_display_string h (Value.smi 42));
  Alcotest.(check string) "double" "2.5"
    (Heap.to_display_string h (Heap.number h 2.5));
  Alcotest.(check string) "integral heapnum prints as int" "3"
    (Heap.to_display_string h (Heap.float_const h 3.0));
  Alcotest.(check string) "null" "null" (Heap.to_display_string h h.Heap.null_v);
  let a = Heap.alloc_array h Hidden_class.E_smi in
  ignore (Heap.elem_set h a 0 (Value.smi 1));
  ignore (Heap.elem_set h a 1 (Value.smi 2));
  Alcotest.(check string) "array" "[1,2]" (Heap.to_display_string h a)

(* Every bench() result is displayed while the run is measured, so
   displaying must not allocate: a double element is read raw, not boxed
   into a heap number. *)
let test_display_allocates_nothing () =
  let h = mk_heap () in
  let a = Heap.alloc_array h Hidden_class.E_smi in
  List.iteri
    (fun i f -> ignore (Heap.elem_set h a i (Heap.number h f)))
    [ 1.0; 2.5; -0.0; 1e20; Float.nan ];
  Alcotest.(check bool) "double array" true
    (Heap.elements_kind h a = Hidden_class.E_double);
  let before = h.Heap.mem.Mem.next_free in
  Alcotest.(check string) "shown as numbers" "[1,2.5,-0,1e+20,nan]"
    (Heap.to_display_string h a);
  Alcotest.(check int) "no simulated allocation" before h.Heap.mem.Mem.next_free

let prop_tagging_partition =
  QCheck.Test.make ~name:"every word is smi xor pointer" ~count:500
    QCheck.(int_range (-100000) 100000)
    (fun v ->
      let w = Value.smi v in
      Value.is_smi w <> Value.is_ptr w)


(* --- additional heap/class edge cases --- *)

let test_second_line_properties () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"Big"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:12 in
  (* fill three line-0 props and four line-1 props *)
  for i = 1 to 9 do
    ignore (Heap.set_prop h o (Printf.sprintf "p%d" i) (Value.smi (i * 11)))
  done;
  for i = 1 to 9 do
    Alcotest.(check (option int)) "read back" (Some (i * 11))
      (Option.map Value.smi_value (Heap.get_prop h o (Printf.sprintf "p%d" i)))
  done;
  (* the 6th property lives on line 1 *)
  let c = Heap.class_of_addr h (Value.ptr_addr o) in
  let slot = Option.get (Hidden_class.slot_of_prop c "p6") in
  let line, pos = Layout.line_pos_of_slot slot in
  Alcotest.(check (pair int int)) "p6 on line 1" (1, 1) (line, pos)

let test_class_words_updated_on_transition () =
  let h = mk_heap () in
  let base =
    Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object ~name:"T2"
      ~prop_names:[||]
  in
  let o = Heap.alloc_object h base ~reserve_props:2 in
  let id0 = Heap.classid_of h o in
  ignore (Heap.set_prop h o "x" (Value.smi 1));
  let id1 = Heap.classid_of h o in
  Alcotest.(check bool) "class changed" true (id0 <> id1);
  (* the stored class word must decode back to the new class *)
  let w = Mem.load h.Heap.mem (Value.ptr_addr o) in
  Alcotest.(check int) "class word updated" id1 (Layout.classid_of_class_word w)

let test_number_canonicalization_cases () =
  let h = mk_heap () in
  let is_smi f = Value.is_smi (Heap.number h f) in
  Alcotest.(check bool) "1.0 -> smi" true (is_smi 1.0);
  Alcotest.(check bool) "-1.0 -> smi" true (is_smi (-1.0));
  Alcotest.(check bool) "0.5 boxed" false (is_smi 0.5);
  Alcotest.(check bool) "2^31 boxed" false (is_smi 2147483648.0);
  Alcotest.(check bool) "-2^31 smi" true (is_smi (-2147483648.0));
  Alcotest.(check bool) "nan boxed" false (is_smi Float.nan);
  Alcotest.(check bool) "inf boxed" false (is_smi Float.infinity);
  (* negative zero must stay a heap number (it is not smi 0) *)
  Alcotest.(check bool) "-0.0 boxed" false (is_smi (-0.0))

let test_interned_string_layout () =
  let h = mk_heap () in
  let v = Heap.intern_string h "abc\ndef" in
  Alcotest.(check string) "content with escapes" "abc\ndef" (Heap.string_value h v);
  Alcotest.(check bool) "is_string" true (Heap.is_string h v);
  Alcotest.(check bool) "not object" false (Heap.is_object h v)

let test_elements_slow_flag () =
  let h = mk_heap () in
  let a = Heap.alloc_array h ~capacity:4 Hidden_class.E_smi in
  Alcotest.(check bool) "append extends (slow)" true (Heap.elem_set h a 0 (Value.smi 1));
  Alcotest.(check bool) "in-bounds overwrite is fast" false
    (Heap.elem_set h a 0 (Value.smi 2));
  Alcotest.(check bool) "kind transition is slow" true
    (Heap.elem_set h a 0 (Heap.number h 0.5))

let test_classid_of_every_kind () =
  let h = mk_heap () in
  let reg = h.Heap.reg in
  Alcotest.(check int) "smi" Layout.smi_classid (Heap.classid_of h (Value.smi 3));
  Alcotest.(check int) "null"
    (Hidden_class.Registry.null_class reg).Hidden_class.id
    (Heap.classid_of h h.Heap.null_v);
  Alcotest.(check int) "bool"
    (Hidden_class.Registry.boolean_class reg).Hidden_class.id
    (Heap.classid_of h h.Heap.true_v);
  Alcotest.(check int) "heapnum"
    (Hidden_class.Registry.number_class reg).Hidden_class.id
    (Heap.classid_of h (Heap.number h 0.5));
  Alcotest.(check int) "string"
    (Hidden_class.Registry.string_class reg).Hidden_class.id
    (Heap.classid_of h (Heap.intern_string h "s"))

let prop_heap_props_roundtrip =
  QCheck.Test.make ~name:"heap: random property store/load roundtrip" ~count:100
    QCheck.(list (pair (int_bound 4) (int_range (-1000) 1000)))
    (fun writes ->
      let h = mk_heap () in
      let base =
        Hidden_class.Registry.fresh h.Heap.reg ~kind:Hidden_class.K_object
          ~name:"R" ~prop_names:[||]
      in
      let o = Heap.alloc_object h base ~reserve_props:5 in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (k, v) ->
          let name = Printf.sprintf "f%d" k in
          ignore (Heap.set_prop h o name (Value.smi v));
          Hashtbl.replace model name v)
        writes;
      Hashtbl.fold
        (fun name v ok ->
          ok
          && Option.map Value.smi_value (Heap.get_prop h o name) = Some v)
        model true)

let prop_elements_model =
  QCheck.Test.make ~name:"heap: elements agree with an array model" ~count:100
    QCheck.(list (pair (int_bound 30) (int_range (-500) 500)))
    (fun writes ->
      let h = mk_heap () in
      let a = Heap.alloc_array h Hidden_class.E_smi in
      let model = Array.make 64 None in
      let hi = ref 0 in
      List.iter
        (fun (i, v) ->
          ignore (Heap.elem_set h a i (Value.smi v));
          model.(i) <- Some v;
          if i >= !hi then hi := i + 1)
        writes;
      Heap.elements_len h a = !hi
      && Array.for_all
           (fun x -> x)
           (Array.mapi
              (fun i m ->
                match m with
                | Some v -> (
                  match Heap.elem_get h a i with
                  | w when Value.is_smi w -> Value.smi_value w = v
                  | _ -> false)
                | None -> true)
              model))

let () =
  Alcotest.run "vm"
    [
      ( "value",
        [
          Alcotest.test_case "smi tagging" `Quick test_smi_tagging;
          Alcotest.test_case "ptr tagging" `Quick test_ptr_tagging;
          Alcotest.test_case "int32 wrap" `Quick test_int32_wrap;
          Alcotest.test_case "js ToInt32" `Quick test_js_to_int32_float;
          QCheck_alcotest.to_alcotest prop_tagging_partition;
        ] );
      ( "fbits",
        [
          Alcotest.test_case "specials" `Quick test_fbits_specials;
          QCheck_alcotest.to_alcotest prop_fbits_roundtrip;
        ] );
      ( "layout",
        [
          Alcotest.test_case "slots" `Quick test_layout_slots;
          Alcotest.test_case "lines" `Quick test_layout_lines_for_props;
          Alcotest.test_case "class word" `Quick test_layout_class_word;
          Alcotest.test_case "addr decoding" `Quick test_layout_addr_decoding;
          QCheck_alcotest.to_alcotest prop_layout_slots_unique;
        ] );
      ( "mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "bump growth" `Quick test_mem_bump_growth;
        ] );
      ( "hidden classes",
        [
          Alcotest.test_case "transitions shared" `Quick test_class_transitions_shared;
          Alcotest.test_case "id space bounded" `Quick test_class_ids_bounded;
        ] );
      ( "heap",
        [
          Alcotest.test_case "object layout" `Quick test_object_layout;
          Alcotest.test_case "props" `Quick test_define_and_get_props;
          Alcotest.test_case "capacity guard" `Quick test_object_capacity_guard;
          Alcotest.test_case "numbers" `Quick test_heap_numbers;
          Alcotest.test_case "strings" `Quick test_strings_interned;
          Alcotest.test_case "elements basic" `Quick test_elements_basic;
          Alcotest.test_case "elements kinds" `Quick test_elements_kind_transitions;
          Alcotest.test_case "elements growth" `Quick test_elements_growth;
          Alcotest.test_case "NodeList pattern" `Quick test_plain_object_elements;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          Alcotest.test_case "display" `Quick test_display;
          Alcotest.test_case "display allocates nothing" `Quick
            test_display_allocates_nothing;
          Alcotest.test_case "second-line properties" `Quick
            test_second_line_properties;
          Alcotest.test_case "transition class words" `Quick
            test_class_words_updated_on_transition;
          Alcotest.test_case "number canonicalization" `Quick
            test_number_canonicalization_cases;
          Alcotest.test_case "interned strings" `Quick test_interned_string_layout;
          Alcotest.test_case "elements slow flag" `Quick test_elements_slow_flag;
          Alcotest.test_case "classid of kinds" `Quick test_classid_of_every_kind;
          QCheck_alcotest.to_alcotest prop_heap_props_roundtrip;
          QCheck_alcotest.to_alcotest prop_elements_model;
        ] );
    ]
