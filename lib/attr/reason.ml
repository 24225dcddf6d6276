(** Structured deopt/check reasons (see reason.mli). *)

module J = Tce_obs.Json

type access = A_load | A_store

type overflow = Ov_arith | Ov_ushr | Ov_negate | Ov_abs

type cold_site =
  | Cold_arith
  | Cold_prop_load
  | Cold_elem_load
  | Cold_prop_store
  | Cold_elem_store
  | Cold_ctor

type cc_site =
  | Cc_prop_store of { line : int; pos : int }
  | Cc_elem_store
  | Cc_elem_store_slow
  | Cc_generic_prop_store
  | Cc_generic_elem_store
  | Cc_push

type osr_site = Osr_call | Osr_ctor

type cause =
  | C_not_class
  | C_poly_ic of access
  | C_not_number
  | C_not_heapnum
  | C_not_smi
  | C_inexact_int32
  | C_overflow of overflow
  | C_div_inexact
  | C_mod_zero
  | C_oob
  | C_cold of cold_site
  | C_cc of cc_site
  | C_osr of osr_site

type kind =
  | K_check_map
  | K_check_smi
  | K_untag
  | K_smi_convert
  | K_checked_load
  | K_math
  | K_bounds
  | K_cc
  | K_cold
  | K_osr

type t = { kind : kind; cause : cause; pc : int; classid : int }

let make ?(classid = -1) kind cause ~pc = { kind; cause; pc; classid }

(* --- kinds --- *)

let all_kinds =
  [
    K_check_map; K_check_smi; K_untag; K_smi_convert; K_checked_load;
    K_math; K_bounds; K_cc; K_cold; K_osr;
  ]

let kind_name = function
  | K_check_map -> "check-map"
  | K_check_smi -> "check-smi"
  | K_untag -> "untag"
  | K_smi_convert -> "smi-convert"
  | K_checked_load -> "checked-load"
  | K_math -> "math"
  | K_bounds -> "bounds"
  | K_cc -> "cc"
  | K_cold -> "cold"
  | K_osr -> "osr"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

(* --- causes --- *)

let cold_name = function
  | Cold_arith -> "arith"
  | Cold_prop_load -> "prop-load"
  | Cold_elem_load -> "elem-load"
  | Cold_prop_store -> "prop-store"
  | Cold_elem_store -> "elem-store"
  | Cold_ctor -> "ctor"

let all_colds =
  [ Cold_arith; Cold_prop_load; Cold_elem_load; Cold_prop_store;
    Cold_elem_store; Cold_ctor ]

let overflow_name = function
  | Ov_arith -> "arith"
  | Ov_ushr -> "ushr"
  | Ov_negate -> "negate"
  | Ov_abs -> "abs"

let all_overflows = [ Ov_arith; Ov_ushr; Ov_negate; Ov_abs ]

let osr_name = function Osr_call -> "call" | Osr_ctor -> "ctor"

let all_causes =
  [ C_not_class; C_poly_ic A_load; C_poly_ic A_store; C_not_number;
    C_not_heapnum; C_not_smi; C_inexact_int32 ]
  @ List.map (fun o -> C_overflow o) all_overflows
  @ [ C_div_inexact; C_mod_zero; C_oob ]
  @ List.map (fun c -> C_cold c) all_colds
  @ [
      C_cc (Cc_prop_store { line = 0; pos = 1 });
      C_cc Cc_elem_store;
      C_cc Cc_elem_store_slow;
      C_cc Cc_generic_prop_store;
      C_cc Cc_generic_elem_store;
      C_cc Cc_push;
      C_osr Osr_call;
      C_osr Osr_ctor;
    ]

let cause_name = function
  | C_not_class -> "not-class"
  | C_poly_ic A_load -> "poly-load"
  | C_poly_ic A_store -> "poly-store"
  | C_not_number -> "not-number"
  | C_not_heapnum -> "not-heapnum"
  | C_not_smi -> "not-smi"
  | C_inexact_int32 -> "inexact-int32"
  | C_overflow o -> "overflow-" ^ overflow_name o
  | C_div_inexact -> "div-inexact"
  | C_mod_zero -> "mod-zero"
  | C_oob -> "oob"
  | C_cold c -> "cold-" ^ cold_name c
  | C_cc (Cc_prop_store { line; pos }) ->
    Printf.sprintf "cc-prop-store(%d,%d)" line pos
  | C_cc Cc_elem_store -> "cc-elem-store"
  | C_cc Cc_elem_store_slow -> "cc-elem-store-slow"
  | C_cc Cc_generic_prop_store -> "cc-generic-prop-store"
  | C_cc Cc_generic_elem_store -> "cc-generic-elem-store"
  | C_cc Cc_push -> "cc-push"
  | C_osr o -> "osr-" ^ osr_name o

let cause_of_name s =
  (* Parameterized cc-prop-store first; everything else is a fixed token. *)
  let n = String.length s in
  let prefix = "cc-prop-store(" in
  let pn = String.length prefix in
  if n > pn && String.sub s 0 pn = prefix && s.[n - 1] = ')' then
    match String.split_on_char ',' (String.sub s pn (n - pn - 1)) with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some line, Some pos -> Some (C_cc (Cc_prop_store { line; pos }))
      | _ -> None)
    | _ -> None
  else
    List.find_opt
      (fun c ->
        match c with
        | C_cc (Cc_prop_store _) -> false
        | c -> cause_name c = s)
      all_causes

(* --- canonical string form --- *)

let to_string (r : t) =
  Printf.sprintf "%s:%s@%d#%d" (kind_name r.kind) (cause_name r.cause) r.pc
    r.classid

let of_string s =
  match String.index_opt s '@' with
  | None -> None
  | Some at -> (
    match String.index_from_opt s at '#' with
    | None -> None
    | Some hash -> (
      let head = String.sub s 0 at in
      let pc_s = String.sub s (at + 1) (hash - at - 1) in
      let cid_s = String.sub s (hash + 1) (String.length s - hash - 1) in
      match String.index_opt head ':' with
      | None -> None
      | Some colon -> (
        let kind_s = String.sub head 0 colon in
        let cause_s =
          String.sub head (colon + 1) (String.length head - colon - 1)
        in
        match
          ( kind_of_name kind_s, cause_of_name cause_s,
            int_of_string_opt pc_s, int_of_string_opt cid_s )
        with
        | Some kind, Some cause, Some pc, Some classid ->
          Some { kind; cause; pc; classid }
        | _ -> None)))

(* --- human rendering --- *)

let describe (r : t) =
  let site = Printf.sprintf " (pc %d)" r.pc in
  let cls = if r.classid >= 0 then Printf.sprintf " class %d" r.classid else "" in
  let what =
    match r.cause with
    | C_not_class ->
      Printf.sprintf "receiver is not%s" (if cls = "" then " the speculated class" else cls)
    | C_poly_ic A_load -> "receiver class not in polymorphic load IC"
    | C_poly_ic A_store -> "receiver class not in polymorphic store IC"
    | C_not_number -> "value is neither SMI nor HeapNumber"
    | C_not_heapnum -> "value is not a HeapNumber"
    | C_not_smi -> "value is not an SMI"
    | C_inexact_int32 -> "double value is not an exact int32"
    | C_overflow Ov_arith -> "integer add/sub/mul overflowed"
    | C_overflow Ov_ushr -> "ushr result exceeds SMI range"
    | C_overflow Ov_negate -> "integer negate overflowed"
    | C_overflow Ov_abs -> "abs of most-negative SMI"
    | C_div_inexact -> "zero divisor or inexact quotient"
    | C_mod_zero -> "zero divisor"
    | C_oob -> "element index out of range"
    | C_cold Cold_arith -> "arithmetic site never executed"
    | C_cold Cold_prop_load -> "property load site never executed"
    | C_cold Cold_elem_load -> "element load site never executed"
    | C_cold Cold_prop_store -> "property store site never executed"
    | C_cold Cold_elem_store -> "element store site never executed"
    | C_cold Cold_ctor -> "constructor base class unknown"
    | C_cc (Cc_prop_store { line; pos }) ->
      Printf.sprintf "special store broke profile (line %d pos %d)" line pos
    | C_cc Cc_elem_store -> "special element store broke profile"
    | C_cc Cc_elem_store_slow ->
      "slow-path element store retired a speculated profile"
    | C_cc Cc_generic_prop_store ->
      "generic property store retired a speculated profile"
    | C_cc Cc_generic_elem_store ->
      "generic element store retired a speculated profile"
    | C_cc Cc_push -> "push store retired a speculated profile"
    | C_osr Osr_call -> "callee invalidated this code during the call"
    | C_osr Osr_ctor -> "callee invalidated this code during constructor call"
  in
  Printf.sprintf "%s: %s%s" (kind_name r.kind) what site

(* --- JSON --- *)

let to_json (r : t) =
  J.Obj
    [
      ("kind", J.Str (kind_name r.kind));
      ("cause", J.Str (cause_name r.cause));
      ("pc", J.Int r.pc);
      ("classid", J.Int r.classid);
    ]

let compare (a : t) (b : t) = Stdlib.compare a b
