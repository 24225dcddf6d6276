(* Fault-layer tests: spec parsing and printing, injector determinism, the
   quiet proof (against fixed cases and real faulted runs), the zero-cost
   disabled path (simulated cycles bit-identical with the injector absent,
   and with an armed-but-inert injector), retire-path detection of lost
   deopts and dropped profiling updates (outputs must equal the checks-on
   reference), deopt-storm backoff + recovery, and a seeded campaign that
   must reproduce the committed campaign's cells. *)

module E = Tce_engine.Engine
module T = Tce_obs.Trace
module Spec = Tce_fault.Spec
module Point = Tce_fault.Point
module Injector = Tce_fault.Injector

(* --- spec parsing --- *)

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok spec ->
        Alcotest.(check string) ("roundtrip " ^ s) s (Spec.to_string spec))
    [
      "lost-deopt:0.5";
      "cc-evict:0.02,cc-drop:0.05";
      "cc-delay:0.5:3";
      "cc-delay@7";
      "osr-fail";
    ];
  (* the default campaign spec round-trips too *)
  (match Spec.parse (Spec.to_string Spec.default) with
  | Ok spec ->
    Alcotest.(check string) "default roundtrips"
      (Spec.to_string Spec.default) (Spec.to_string spec)
  | Error e -> Alcotest.failf "default spec does not reparse: %s" e);
  List.iter
    (fun s ->
      match Spec.parse s with
      | Ok _ -> Alcotest.failf "parse %s should have failed" s
      | Error _ -> ())
    [ "no-such-point"; "cc-evict:1.5"; "cc-evict:0.1,cc-evict:0.2"; "cc-evict@0" ]

(* A rule prints so that it parses back to itself, whatever its
   probability's digits. *)
let prop_rule_roundtrip =
  QCheck.Test.make ~name:"parse (to_string r) = r for random probabilities"
    ~count:500
    QCheck.(
      triple (int_bound (Point.count - 1)) (float_range 0.0 1.0)
        (option (int_range 1 64)))
    (fun (i, p, param) ->
      let r =
        { Spec.point = List.nth Point.all i; trigger = Spec.Prob p; param }
      in
      Spec.parse (Spec.to_string [ r ]) = Ok [ r ])

(* Two rates that agree to 6 significant digits are distinct specs, so
   their cells get distinct cache keys. *)
let test_close_rates_distinct_keys () =
  let module C = Tce_runner.Campaign in
  let w =
    match Tce_workloads.Workloads.by_name "stanford-crypto-ccm" with
    | Some w -> w
    | None -> Alcotest.fail "stanford-crypto-ccm missing from the registry"
  in
  let key s =
    match Spec.parse s with
    | Ok spec ->
      (C.cells ~spec ~seed:C.default_seed [ w ]).Tce_runner.Shard.key 0
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  let a = "cc-drop:0.1234567" and b = "cc-drop:0.1234574" in
  List.iter
    (fun s ->
      match Spec.parse s with
      | Ok spec ->
        Alcotest.(check string) ("prints as " ^ s) s (Spec.to_string spec)
      | Error e -> Alcotest.failf "parse %s: %s" s e)
    [ a; b ];
  Alcotest.(check bool) "distinct cell keys" true (key a <> key b)

(* --- injector determinism --- *)

let draw_sequence ~seed n =
  let inj =
    Injector.create ~seed
      [ { Spec.point = Point.Cc_evict; trigger = Spec.Prob 0.3; param = None } ]
  in
  List.init n (fun _ -> Injector.fire inj Point.Cc_evict)

let test_injector_deterministic () =
  let a = draw_sequence ~seed:42 200 and b = draw_sequence ~seed:42 200 in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  let c = draw_sequence ~seed:43 200 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  let inj =
    Injector.create ~seed:1
      [ { Spec.point = Point.Osr_fail; trigger = Spec.At 3; param = None } ]
  in
  let hits = List.init 5 (fun _ -> Injector.fire inj Point.Osr_fail) in
  Alcotest.(check (list bool)) "one-shot fires exactly on the 3rd"
    [ false; false; true; false; false ] hits;
  Alcotest.(check int) "opportunities counted" 5
    (Injector.opportunities inj Point.Osr_fail)

let test_quiet_fixed_cases () =
  let rule trigger = { Spec.point = Point.Osr_fail; trigger; param = None } in
  List.iter
    (fun (what, trigger, n, expected) ->
      Alcotest.(check bool) what expected
        (Injector.quiet ~seed:9 (rule trigger) ~opportunities:n))
    [
      ("At 5 within 4", Spec.At 5, 4, true);
      ("At 5 within 5", Spec.At 5, 5, false);
      ("Prob 1.0 within 0", Spec.Prob 1.0, 0, true);
      ("Prob 1.0 within 1", Spec.Prob 1.0, 1, false);
      ("Prob 0.0 within 10000", Spec.Prob 0.0, 10_000, true);
    ]

(* --- the zero-cost disabled path --- *)

(* A program whose speculation genuinely breaks (a Point with a double .x
   after 12 SMI Points), exercising the full deopt pipeline. The poison
   store is the program's last property store, and speculative code runs
   again afterwards — the shape the retire-path detection tests need. *)
let break_src =
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
var bad = new Point(300, 4);
acc = (acc + sum(bad, 400)) & 268435455;
bad.x = 0.5;
acc = (acc + ((sum(bad, 400) * 2.0) | 0)) & 268435455;
print(acc);
|}

let run_with ?(mechanism = true) ?(fault = Injector.null) ?(trace = T.null) src
    =
  let config = { E.default_config with E.mechanism; fault; trace } in
  let t = E.of_source ~config src in
  E.set_measuring t true;
  ignore (E.run_main t);
  t

let test_disarmed_is_zero_cost () =
  let t_plain = run_with break_src in
  (* armed with a one-shot that never triggers: every hook runs, nothing
     fires, and the simulated numbers must not move *)
  let inert =
    Injector.create ~seed:7
      [ { Spec.point = Point.Cc_evict; trigger = Spec.At 1_000_000; param = None } ]
  in
  let t_armed = run_with ~fault:inert break_src in
  Alcotest.(check bool) "armed" true (Injector.armed inert);
  (* 13 Points x 2 constructor stores + the poison store = 27 CC accesses
     from the store path that offer an eviction opportunity *)
  Alcotest.(check int) "hooks saw opportunities" 27
    (Injector.opportunities inert Point.Cc_evict);
  Alcotest.(check int) "nothing fired" 0 (Injector.total_fires inert);
  Alcotest.(check string) "same output" (E.output t_plain) (E.output t_armed);
  Alcotest.(check int) "same optimized cycles" (E.opt_cycles t_plain)
    (E.opt_cycles t_armed);
  Alcotest.(check (float 1e-9)) "same baseline cycles"
    (E.baseline_cycles t_plain) (E.baseline_cycles t_armed)

(* --- retire-path detection --- *)

let reference_output src =
  E.output (run_with ~mechanism:false src)

let test_lost_deopt_detected () =
  let fault =
    Injector.create ~seed:11
      [ { Spec.point = Point.Lost_deopt; trigger = Spec.Prob 1.0; param = None } ]
  in
  let trace = T.create () in
  let t = run_with ~fault ~trace break_src in
  Alcotest.(check bool) "a deopt notification was dropped" true
    (Injector.lost fault <> []);
  Alcotest.(check bool) "the retire-path check caught it" true
    (Injector.detections fault > 0);
  Alcotest.(check string) "output equals the checks-on reference"
    (reference_output break_src) (E.output t);
  let detected =
    List.exists
      (fun r -> match r.T.ev with T.Fault_detected _ -> true | _ -> false)
      (T.records trace)
  in
  Alcotest.(check bool) "Fault_detected event emitted" true detected

let test_dropped_update_detected () =
  (* Pin the poison store's opportunity index with an inert probe run, then
     drop exactly that profiling update. *)
  let probe =
    Injector.create ~seed:5
      [ { Spec.point = Point.Cc_drop_update; trigger = Spec.At max_int; param = None } ]
  in
  ignore (run_with ~fault:probe break_src);
  let n = Injector.opportunities probe Point.Cc_drop_update in
  Alcotest.(check bool) "probe saw the store stream" true (n > 0);
  (* the poison store (bad.x = 0.5) is the last property store *)
  let fault =
    Injector.create ~seed:5
      [ { Spec.point = Point.Cc_drop_update; trigger = Spec.At n; param = None } ]
  in
  let t = run_with ~fault break_src in
  Alcotest.(check int) "the poly-transition update was dropped" 1
    (Injector.fires fault Point.Cc_drop_update);
  Alcotest.(check bool) "the ground-truth oracle exposed it" true
    (Injector.detections fault > 0);
  Alcotest.(check string) "output equals the checks-on reference"
    (reference_output break_src) (E.output t)

let test_spurious_and_delayed_are_safe () =
  List.iter
    (fun rule ->
      let fault = Injector.create ~seed:3 [ rule ] in
      let t = run_with ~fault break_src in
      Alcotest.(check string)
        (Point.name rule.Spec.point ^ " output equals reference")
        (reference_output break_src) (E.output t))
    [
      { Spec.point = Point.Cc_spurious_exn; trigger = Spec.Prob 0.2; param = None };
      { Spec.point = Point.Cc_delayed_exn; trigger = Spec.Prob 1.0; param = Some 3 };
      { Spec.point = Point.Cl_flip_valid; trigger = Spec.Prob 0.1; param = None };
      { Spec.point = Point.Cc_evict; trigger = Spec.Prob 0.5; param = None };
    ]

(* --- deopt-storm backoff and recovery --- *)

let storm_workload () =
  match Tce_workloads.Workloads.by_name "deopt-storm" with
  | Some w -> w
  | None -> Alcotest.fail "deopt-storm workload missing from the registry"

let test_backoff_engages_and_recovers () =
  let w = storm_workload () in
  let trace = T.create ~capacity:65536 () in
  let config = { E.default_config with E.trace = trace } in
  let t = E.of_source ~config w.Tce_workloads.Workload.source in
  E.set_measuring t true;
  ignore (E.run_main t);
  for _ = 1 to w.Tce_workloads.Workload.iterations do
    ignore (E.call_by_name t "bench" [||])
  done;
  let records = T.records trace in
  let backoffs =
    List.filter_map
      (fun r ->
        match r.T.ev with
        | T.Backoff { func; level; _ } -> Some (r.T.at, func, level)
        | _ -> None)
      records
  in
  Alcotest.(check bool) "backoff engaged" true (backoffs <> []);
  List.iter
    (fun (_, func, _) ->
      Alcotest.(check string) "the storming function backs off" "hotsum" func)
    backoffs;
  let levels = List.map (fun (_, _, l) -> l) backoffs in
  Alcotest.(check (list int)) "exponential escalation"
    (List.init (List.length levels) (fun i -> i + 1))
    levels;
  (* recovery: hotsum re-optimizes after the last cooldown *)
  let last_backoff_at =
    List.fold_left (fun acc (at, _, _) -> max acc at) 0 backoffs
  in
  let recovered =
    List.exists
      (fun r ->
        match r.T.ev with
        | T.Tierup { func; _ } -> func = "hotsum" && r.T.at > last_backoff_at
        | _ -> false)
      records
  in
  Alcotest.(check bool) "hotsum re-optimizes after the storm" true recovered

let test_storm_checksum_stable () =
  (* mechanism on/off agree on the storm workload (run_pair asserts) *)
  let off, on = Tce_metrics.Harness.run_pair (storm_workload ()) in
  Alcotest.(check string) "checksums agree" off.Tce_metrics.Harness.checksum
    on.Tce_metrics.Harness.checksum;
  Alcotest.(check bool) "the storm actually deopts" true
    (on.Tce_metrics.Harness.deopts >= 0)

(* --- the campaign oracle across commits --- *)

(* The committed full-roster campaign under seed 1024279. dune runtest runs
   from _build/default/test, where the declared dep materializes one level
   up; a direct `dune exec` runs from the source root. *)
let committed_campaign =
  let p =
    Filename.concat Tce_runner.Campaign.campaigns_dir
      "2026-08-06T00-00-42Z-0a17b8b35c90-seed1024279.json"
  in
  if Sys.file_exists p then p else Filename.concat ".." p

(* A cell is a pure function of (workload, rule, seed): rerunning two
   workloads of that campaign (18 cells, every fault point, the OSR-fail
   and deopt paths included) must reproduce its cells exactly. *)
let test_campaign_matches_committed () =
  let module C = Tce_runner.Campaign in
  let reference =
    match C.load committed_campaign with
    | Ok c -> c
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let ws =
    List.map
      (fun n ->
        match Tce_workloads.Workloads.by_name n with
        | Some w -> w
        | None -> Alcotest.failf "%s missing from the registry" n)
      [ "richards"; "deopt-storm" ]
  in
  let spec =
    match Spec.parse reference.C.spec with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "committed campaign spec: %s" e
  in
  let c = C.run ~spec ~seed:reference.C.campaign_seed ws in
  Alcotest.(check int) "every point on both workloads" 18
    (List.length c.C.cells);
  Alcotest.(check (list string)) "cells equal the committed ones" []
    (C.diff_cells ~reference c)

(* The quiet proof against real faulted runs, at the committed campaign's
   seed under each default rule: [Injector.quiet] over the counting clean
   run's opportunities holds exactly when the faulted run fires nothing,
   and then the faulted run observes what the clean run did. The counting
   run itself observes what an unarmed run does. The four workloads span
   the opportunity counts: none, osr-fail only, every point (deopt-storm
   offers 15 cc-delay and 15 lost-deopt ones), the Class Cache points. *)
let test_quiet_matches_faulted_runs () =
  let module C = Tce_runner.Campaign in
  let campaign_seed =
    match C.load committed_campaign with
    | Ok c -> c.C.campaign_seed
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let cc_points =
    [ "cc-evict"; "cc-drop"; "cl-flip-init"; "cl-flip-valid"; "cl-flip-spec";
      "cc-spurious" ]
  in
  let on = { E.default_config with E.mechanism = true } in
  let quiet_cells = ref 0 and fired_cells = ref 0 in
  List.iter
    (fun (name, offered) ->
      let w =
        match Tce_workloads.Workloads.by_name name with
        | Some w -> w
        | None -> Alcotest.failf "%s missing from the registry" name
      in
      let p = C.prep w in
      Alcotest.(check (list string)) (name ^ ": points offered opportunities")
        offered
        (List.map Point.name
           (List.filter (fun pt -> p.C.opportunities pt > 0) Point.all));
      Alcotest.(check bool)
        (name ^ ": counting run observes what an unarmed run does")
        true
        (p.C.clean = C.observe ~config:on w);
      List.iter
        (fun (rule : Spec.rule) ->
          let point = Point.name rule.Spec.point in
          let seed = C.cell_seed ~campaign_seed ~workload:name ~point in
          let inj = Injector.create ~seed [ rule ] in
          let o = C.observe ~config:{ on with E.fault = inj } w in
          let quiet =
            Injector.quiet ~seed rule
              ~opportunities:(p.C.opportunities rule.Spec.point)
          in
          let cell = name ^ "/" ^ point in
          Alcotest.(check bool) (cell ^ ": quiet iff no fire") quiet
            (Injector.total_fires inj = 0);
          if quiet then begin
            incr quiet_cells;
            Alcotest.(check bool)
              (cell ^ ": quiet run observes the clean one")
              true (o = p.C.clean)
          end
          else incr fired_cells)
        Spec.default)
    [
      ("regexp", []);
      ("controlflow-recursive", [ "osr-fail" ]);
      ("deopt-storm", List.map Point.name Point.all);
      ("stanford-crypto-ccm", cc_points);
    ];
  Alcotest.(check bool) "both kinds of cell occur" true
    (!quiet_cells > 0 && !fired_cells > 0)

(* With dir "" the campaign writes only its latest document and names no
   archive. *)
let test_campaign_save_without_archive () =
  let module C = Tce_runner.Campaign in
  let c =
    match C.load committed_campaign with
    | Ok c -> c
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let latest = Filename.temp_file "tce-faults-latest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove latest)
    (fun () ->
      Alcotest.(check (option string)) "no archive" None
        (C.save ~latest ~dir:"" c);
      match C.load latest with
      | Ok c' ->
        Alcotest.(check (list string)) "latest holds the same cells" []
          (C.diff_cells ~reference:c c')
      | Error e -> Alcotest.fail e)

(* A cell that differs from the reference's is reported by the fields
   that differ, each with the reference and the current value; a cell the
   reference lacks is named as such. *)
let test_campaign_diff_names_fields () =
  let module C = Tce_runner.Campaign in
  let c =
    match C.load committed_campaign with
    | Ok c -> c
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let first = List.hd c.C.cells in
  let changed = { first with C.fires = first.C.fires + 1 } in
  Alcotest.(check (list string)) "one line naming the field"
    [
      Printf.sprintf "%s/%s: fires: reference %d, current %d" first.C.workload
        first.C.point first.C.fires (first.C.fires + 1);
    ]
    (C.diff_cells ~reference:c { c with C.cells = changed :: List.tl c.C.cells });
  Alcotest.(check (list string)) "a cell the reference lacks"
    [ Printf.sprintf "%s/%s: not in the reference" first.C.workload first.C.point ]
    (C.diff_cells ~reference:{ c with C.cells = List.tl c.C.cells } c)

(* An optional field of a campaign document keeps its default when absent
   and is an error naming it when present but mistyped. *)
let test_campaign_rejects_mistyped_fields () =
  let module C = Tce_runner.Campaign in
  let module J = Tce_obs.Json in
  let doc =
    match Tce_runner.Store.read_json committed_campaign Result.ok with
    | Ok j -> j
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let with_field name v =
    match doc with
    | J.Obj top ->
      J.Obj
        (List.map
           (function
             | "data", J.Obj d ->
               ("data", J.Obj ((name, v) :: List.remove_assoc name d))
             | kv -> kv)
           top)
    | _ -> Alcotest.fail "the committed campaign is not an object"
  in
  (match C.of_json doc with
  | Ok c ->
    Alcotest.(check int) "absent shards is one" 1 c.C.shards;
    Alcotest.(check (list int)) "absent resumed_rows is empty" []
      c.C.resumed_rows
  | Error e -> Alcotest.fail e);
  (match C.of_json (with_field "resumed_rows" (J.List [ J.Int 3; J.Int 5 ])) with
  | Ok c ->
    Alcotest.(check (list int)) "resumed_rows read" [ 3; 5 ] c.C.resumed_rows
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (name, v) ->
      match C.of_json (with_field name v) with
      | Ok _ -> Alcotest.failf "%s = %s accepted" name (J.to_string v)
      | Error e ->
        if not (Astring.String.is_infix ~affix:(Printf.sprintf "%S" name) e) then
          Alcotest.failf "%s = %s: error %S does not name the field" name
            (J.to_string v) e)
    [
      ("shards", J.Str "two");
      ("shards", J.Int 0);
      ("resumed_rows", J.List [ J.Int 3; J.Str "x"; J.Null ]);
      ("resumed_rows", J.Str "x");
      ("quarantined", J.Str "x");
    ]

(* A mistyped field inside a list entry (a cell, a quarantined entry) is
   an error naming the field and the entry's place in its list. *)
let test_campaign_bad_entry_named () =
  let module C = Tce_runner.Campaign in
  let module J = Tce_obs.Json in
  let doc =
    match Tce_runner.Store.read_json committed_campaign Result.ok with
    | Ok j -> j
    | Error e -> Alcotest.failf "committed campaign unreadable: %s" e
  in
  let edit_data f =
    match doc with
    | J.Obj top ->
      J.Obj
        (List.map
           (function "data", J.Obj d -> ("data", J.Obj (f d)) | kv -> kv)
           top)
    | _ -> Alcotest.fail "the committed campaign is not an object"
  in
  let set name v kvs = (name, v) :: List.remove_assoc name kvs in
  let eighth_fires_x =
    edit_data (fun d ->
        match List.assoc "cells" d with
        | J.List cells ->
          set "cells"
            (J.List
               (List.mapi
                  (fun i c ->
                    match c with
                    | J.Obj kvs when i = 7 -> J.Obj (set "fires" (J.Str "x") kvs)
                    | c -> c)
                  cells))
            d
        | _ -> Alcotest.fail "cells is not a list")
  in
  let bad_kills =
    edit_data
      (set "quarantined"
         (J.List
            [
              J.Obj
                [
                  ("index", J.Int 1); ("name", J.Str "q"); ("kills", J.Str "two");
                  ("reason", J.Str "r");
                ];
            ]))
  in
  List.iter
    (fun (what, doc, affixes) ->
      match C.of_json doc with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
        List.iter
          (fun affix ->
            if not (Astring.String.is_infix ~affix e) then
              Alcotest.failf "%s: error %S does not name %s" what e affix)
          affixes)
    [
      ("eighth cell's fires = \"x\"", eighth_fires_x, [ "cells[7]"; "\"fires\"" ]);
      ("quarantined kills = \"two\"", bad_kills, [ "quarantined[0]"; "\"kills\"" ]);
    ]

(* --- unfaulted engine unchanged by the fault layer --- *)

let test_null_injector_shared_safely () =
  (* Engine creation must never mutate Injector.null (it is shared across
     parallel domains); its trace stays the global null trace. *)
  let trace = T.create () in
  let t = run_with ~trace break_src in
  ignore t;
  Alcotest.(check bool) "null injector still disarmed" false
    (Injector.armed Injector.null);
  Alcotest.(check int) "null injector saw nothing" 0
    (Injector.total_fires Injector.null)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip + rejects" `Quick test_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_rule_roundtrip;
          Alcotest.test_case "close rates get distinct cell keys" `Quick
            test_close_rates_distinct_keys;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic from seed" `Quick
            test_injector_deterministic;
          Alcotest.test_case "null shared safely" `Quick
            test_null_injector_shared_safely;
          Alcotest.test_case "quiet: fixed cases" `Quick test_quiet_fixed_cases;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "armed-but-inert = bit-identical" `Quick
            test_disarmed_is_zero_cost;
        ] );
      ( "detection",
        [
          Alcotest.test_case "lost deopt detected" `Quick
            test_lost_deopt_detected;
          Alcotest.test_case "dropped update detected" `Quick
            test_dropped_update_detected;
          Alcotest.test_case "spurious/delayed/flip/evict safe" `Quick
            test_spurious_and_delayed_are_safe;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "storm engages backoff, then recovers" `Quick
            test_backoff_engages_and_recovers;
          Alcotest.test_case "storm checksum stable" `Quick
            test_storm_checksum_stable;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "mistyped optional fields rejected" `Quick
            test_campaign_rejects_mistyped_fields;
          Alcotest.test_case "a bad entry field is named" `Quick
            test_campaign_bad_entry_named;
          Alcotest.test_case "save with dir \"\" writes no archive" `Quick
            test_campaign_save_without_archive;
          Alcotest.test_case "a differing cell names its fields" `Quick
            test_campaign_diff_names_fields;
          Alcotest.test_case "seeded cells match the committed campaign" `Slow
            test_campaign_matches_committed;
          Alcotest.test_case "quiet proof matches faulted runs" `Slow
            test_quiet_matches_faulted_runs;
        ] );
    ]
