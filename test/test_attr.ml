(* Attribution-layer tests: exhaustive Reason round-trips, the zero-cost
   disabled ledger, ledger content on a forced misspeculation (sites,
   causal chain, re-speculation outcome), ledger/counter reconciliation on
   real workloads, and the attr-report export envelope. *)

module R = Tce_attr.Reason
module L = Tce_attr.Ledger
module A = Tce_attr.Aggregate
module J = Tce_obs.Json
module E = Tce_engine.Engine
module Cat = Tce_jit.Categories

(* --- Reason round-trips --- *)

(* [all_causes] carries one representative payload per constructor; extend
   it so every payload constructor of the parameterized causes appears. *)
let every_cause =
  R.all_causes
  @ [
      R.C_poly_ic R.A_load;
      R.C_poly_ic R.A_store;
      R.C_overflow R.Ov_arith;
      R.C_overflow R.Ov_ushr;
      R.C_overflow R.Ov_negate;
      R.C_overflow R.Ov_abs;
      R.C_cold R.Cold_arith;
      R.C_cold R.Cold_prop_load;
      R.C_cold R.Cold_elem_load;
      R.C_cold R.Cold_prop_store;
      R.C_cold R.Cold_elem_store;
      R.C_cold R.Cold_ctor;
      R.C_cc (R.Cc_prop_store { line = 0; pos = 1 });
      R.C_cc (R.Cc_prop_store { line = 3; pos = 6 });
      R.C_cc R.Cc_elem_store;
      R.C_cc R.Cc_elem_store_slow;
      R.C_cc R.Cc_generic_prop_store;
      R.C_cc R.Cc_generic_elem_store;
      R.C_cc R.Cc_push;
      R.C_osr R.Osr_call;
      R.C_osr R.Osr_ctor;
    ]

let test_reason_string_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun cause ->
          List.iter
            (fun (pc, classid) ->
              let r = R.make ~classid kind cause ~pc in
              let s = R.to_string r in
              (match R.of_string s with
              | Some r2 ->
                if r2 <> r then
                  Alcotest.failf "string round-trip changed %S -> %S" s
                    (R.to_string r2)
              | None -> Alcotest.failf "of_string failed on %S" s);
              Alcotest.(check bool)
                "describe is non-empty" true
                (String.length (R.describe r) > 0))
            [ (0, -1); (17, 12); (255, 0); (9999, 255) ])
        every_cause)
    R.all_kinds

let test_reason_json_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun cause ->
          let r = R.make ~classid:7 kind cause ~pc:42 in
          (* what a reader of an attr-report recovers from the object *)
          let j = R.to_json r in
          let name k of_name =
            J.field k (fun v -> Option.bind (J.to_str v) of_name) j
          in
          match
            ( name "kind" R.kind_of_name,
              name "cause" R.cause_of_name,
              J.field "pc" J.to_int j,
              J.field "classid" J.to_int j )
          with
          | Ok kind, Ok cause, Ok pc, Ok classid ->
            if { R.kind; cause; pc; classid } <> r then
              Alcotest.failf "json round-trip changed %s" (R.to_string r)
          | _ -> Alcotest.failf "undecodable json for %s" (R.to_string r))
        every_cause)
    R.all_kinds

let test_reason_garbage_rejected () =
  List.iter
    (fun s ->
      match R.of_string s with
      | None -> ()
      | Some r ->
        Alcotest.failf "parsed garbage %S as %s" s (R.to_string r))
    [ ""; "nonsense"; "check-map"; "check-map:bogus-cause@1#2";
      "bogus-kind:not-class@1#2"; "check-map:not-class@x#2" ]

(* --- the disabled ledger is inert --- *)

let test_null_ledger_inert () =
  Alcotest.(check bool) "null is off" false (L.on L.null);
  L.record_site L.null ~fn:"f" ~pc:0 ~kind:"check-map" L.Removed;
  L.record_deopt L.null ~fn:"f"
    ~reason:(R.make R.K_check_map R.C_not_class ~pc:0);
  L.record_chain L.null ~at:0 ~store:"s" ~classid:1 ~line:0 ~pos:0
    ~victims:[ "f" ];
  L.record_respec L.null ~fn:"f" ~outcome:"reoptimized";
  L.record_pin L.null ~fn:"f" ~exponent:1;
  Alcotest.(check (list pass)) "no sites" [] (L.sites L.null);
  Alcotest.(check (list pass)) "no deopts" [] (L.deopts L.null);
  Alcotest.(check (list pass)) "no chains" [] (L.chains L.null);
  Alcotest.(check bool) "slot_retired always false" false
    (L.slot_retired L.null ~classid:1 ~line:0 ~pos:0)

(* --- engine runs: bit-identical cycles, ledger content --- *)

let deopt_src =
  {|
function Point(x, y) { this.x = x; this.y = y; }
function sum(p, n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = (s + p.x + p.y + i) & 268435455; }
  return s;
}
var acc = 0;
for (var k = 0; k < 12; k++) {
  acc = (acc + sum(new Point(k, k + 1), 400)) & 268435455;
}
var bad = new Point(0.5, 3);
acc = (acc + sum(bad, 400)) & 268435455;
print(acc);
|}

let run_with attr src =
  let config = { E.default_config with E.attr } in
  let t = E.of_source ~config src in
  E.set_measuring t true;
  ignore (E.run_main t);
  t

let test_attr_does_not_change_cycles () =
  let t_off = run_with L.null deopt_src in
  let ledger = L.create () in
  let t_on = run_with ledger deopt_src in
  Alcotest.(check bool) "ledger saw sites" true (L.sites ledger <> []);
  Alcotest.(check string) "same output" (E.output t_off) (E.output t_on);
  Alcotest.(check int) "same optimized cycles" (E.opt_cycles t_off)
    (E.opt_cycles t_on);
  Alcotest.(check (float 1e-9)) "same baseline cycles"
    (E.baseline_cycles t_off) (E.baseline_cycles t_on)

let test_ledger_content_on_misspeculation () =
  let ledger = L.create () in
  let _t = run_with ledger deopt_src in
  (* sites: sum's property loads speculate during warm-up (removed), and
     the post-misspeculation recompile keeps a check with a named cause *)
  let sites = L.sites ledger in
  Alcotest.(check bool) "some checks removed" true
    (List.exists (fun s -> s.L.decision = L.Removed) sites);
  Alcotest.(check bool) "some checks kept with a cause" true
    (List.exists
       (fun s -> match s.L.decision with L.Kept _ -> true | _ -> false)
       sites);
  (* deopts carry typed reasons *)
  let deopts = L.deopts ledger in
  Alcotest.(check bool) "at least one deopt" true (deopts <> []);
  List.iter
    (fun d ->
      let s = R.to_string d.L.reason in
      match R.of_string s with
      | Some r -> Alcotest.(check string) "lossless" s (R.to_string r)
      | None -> Alcotest.failf "deopt reason does not parse: %s" s)
    deopts;
  (* the double store into Point.x produces a full causal chain *)
  match L.chains ledger with
  | [] -> Alcotest.fail "no CC-exception chain recorded"
  | chain :: _ ->
    Alcotest.(check bool) "chain names sum as a victim" true
      (List.mem "sum" chain.L.victims);
    Alcotest.(check bool) "store rendering non-empty" true
      (String.length chain.L.store > 0);
    (* sum gets hot again and re-optimizes: the chain closes the loop *)
    Alcotest.(check bool) "re-speculation outcome attached" true
      (List.mem_assoc "sum" chain.L.respec);
    (* the cleared slot is observable through slot_retired *)
    Alcotest.(check bool) "slot_retired sees the chain" true
      (L.slot_retired ledger ~classid:chain.L.classid ~line:chain.L.line
         ~pos:chain.L.pos)

(* --- ledger/counter reconciliation on real workloads --- *)

let reconcile_workload name =
  let w =
    match Tce_workloads.Workloads.by_name name with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %s" name
  in
  let off, on = Tce_metrics.Harness.run_pair w in
  (* Record.of_pair raises on any reconciliation failure (slot 0 non-empty
     or a kind-sum mismatch) — building the record IS the assertion. *)
  let rec_ = Tce_runner.Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on in
  let sum_off =
    List.fold_left (fun a (_, o, _) -> a + o) 0 rec_.Tce_runner.Record.checks_by_kind
  and sum_on =
    List.fold_left (fun a (_, _, o) -> a + o) 0 rec_.Tce_runner.Record.checks_by_kind
  in
  Alcotest.(check int)
    (name ^ ": kinds sum to checks_off")
    rec_.Tce_runner.Record.checks_off sum_off;
  Alcotest.(check int)
    (name ^ ": kinds sum to checks_on")
    rec_.Tce_runner.Record.checks_on sum_on;
  (* the composition block survives a JSON round-trip *)
  match Tce_runner.Record.workload_of_json (Tce_runner.Record.workload_to_json rec_) with
  | Ok r2 ->
    Alcotest.(check bool)
      (name ^ ": record JSON round-trip")
      true
      (rec_ = r2)
  | Error e -> Alcotest.failf "%s: record decode failed: %s" name e

let test_reconciliation () =
  List.iter reconcile_workload
    [ "deltablue"; "splay"; "json-stringify-tinderbox" ]

(* --- aggregate / export envelope --- *)

let test_report_envelope () =
  let ledger = L.create () in
  let t = run_with ledger deopt_src in
  let c = t.E.counters in
  let checks_executed =
    List.map
      (fun k ->
        ( Cat.check_kind_name k,
          c.Tce_machine.Counters.by_check_kind.(Cat.check_kind_index k + 1) ))
      Cat.all_check_kinds
  in
  let doc =
    A.report_json ~program:"deopt_trace" ~checks_executed
      ~cc_occupancy:(Tce_core.Class_cache.set_occupancy t.E.cc)
      ~cc_conflicts:(Tce_core.Class_cache.set_conflicts t.E.cc)
      ledger
  in
  (match Tce_obs.Export.open_document ~kind:A.report_kind doc with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* the explain text names a kept-check cause and the causal chain *)
  let txt =
    A.explain_text ~program:"deopt_trace" ~checks_executed ledger
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "explain names a kept cause" true
    (List.exists
       (fun cause -> contains txt (L.keep_cause_name cause))
       L.all_keep_causes);
  Alcotest.(check bool) "explain shows the CC chain" true
    (contains txt "CC exception")

let () =
  Alcotest.run "attr"
    [
      ( "reason",
        [
          Alcotest.test_case "string round-trip (exhaustive)" `Quick
            test_reason_string_roundtrip;
          Alcotest.test_case "json round-trip" `Quick test_reason_json_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_reason_garbage_rejected;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "null ledger is inert" `Quick test_null_ledger_inert;
          Alcotest.test_case "attribution does not change cycles" `Quick
            test_attr_does_not_change_cycles;
          Alcotest.test_case "misspeculation content" `Quick
            test_ledger_content_on_misspeculation;
        ] );
      ( "reconciliation",
        [ Alcotest.test_case "3 workloads reconcile" `Slow test_reconciliation ]
      );
      ( "report",
        [ Alcotest.test_case "envelope and explain text" `Quick test_report_envelope ]
      );
    ]
