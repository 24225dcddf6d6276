(* Tests for the measurement layer: the harness protocol and the experiment
   runners produce well-formed, self-consistent rows. Uses one small
   workload to keep the suite fast. *)

open Tce_metrics

let tiny =
  Tce_workloads.Workload.make ~suite:Tce_workloads.Workload.Octane ~selected:true
    "tiny-test-workload"
    {|
function K(v) { this.v = v; }
var os = array_new(0);
for (var i = 0; i < 24; i++) { push(os, new K(i)); }
function bench() {
  var s = 0;
  for (var i = 0; i < 24; i++) { s = (s + os[i].v) & 65535; }
  return s;
}
|}

let pair = lazy (Harness.run_pair tiny)

let test_checksums_agree () =
  let off, on = Lazy.force pair in
  Alcotest.(check string) "off = on" off.Harness.checksum on.Harness.checksum;
  Alcotest.(check string) "matches interpreter" (Harness.interp_checksum tiny)
    on.Harness.checksum

let test_steady_state_subset_of_whole () =
  let off, _ = Lazy.force pair in
  Alcotest.(check bool) "whole run covers more instructions" true
    (off.Harness.whole_instrs > off.Harness.opt_instrs);
  Alcotest.(check bool) "whole cycles cover more" true
    (off.Harness.whole_cycles > float_of_int off.Harness.opt_cycles)

let test_category_sums () =
  let off, _ = Lazy.force pair in
  Alcotest.(check int) "by_cat sums to opt_instrs" off.Harness.opt_instrs
    (Array.fold_left ( + ) 0 off.Harness.by_cat);
  Alcotest.(check bool) "guards within check+tag population" true
    (off.Harness.guards_obj_load
    <= off.Harness.by_cat.(0) + off.Harness.by_cat.(1))

let test_mechanism_removes_checks () =
  let off, on = Lazy.force pair in
  Alcotest.(check bool) "fewer dynamic checks" true
    (on.Harness.by_cat.(0) < off.Harness.by_cat.(0));
  Alcotest.(check bool) "no checks appear from nowhere" true
    (on.Harness.opt_instrs <= off.Harness.opt_instrs + on.Harness.by_cat.(3))

let test_fig3_accounts_every_load () =
  let off, _ = Lazy.force pair in
  let mp, me, pp, pe = off.Harness.fig3 in
  Alcotest.(check int) "classification partitions the loads"
    off.Harness.obj_loads_total (mp + me + pp + pe);
  Alcotest.(check bool) "this workload is fully monomorphic" true
    (pp = 0 && pe = 0 && mp + me > 0)

let test_energy_consistent () =
  let off, _ = Lazy.force pair in
  Alcotest.(check (float 1e-6)) "total = dynamic + leakage" off.Harness.energy_nj
    (off.Harness.energy_dynamic_nj +. off.Harness.energy_leakage_nj);
  Alcotest.(check bool) "positive" true (off.Harness.energy_nj > 0.0)

let test_determinism () =
  (* identical runs must measure identically (the whole simulator is
     deterministic) *)
  let a = Harness.run tiny in
  let b = Harness.run tiny in
  Alcotest.(check int) "cycles deterministic" a.Harness.opt_cycles b.Harness.opt_cycles;
  Alcotest.(check int) "instrs deterministic" a.Harness.opt_instrs b.Harness.opt_instrs;
  Alcotest.(check (float 0.0)) "whole-run deterministic" a.Harness.whole_cycles
    b.Harness.whole_cycles

(* The figure views read a runner row and its figure inputs, both built
   here from the measured pair. *)
let test_experiment_rows_well_formed () =
  let module Experiments = Tce_runner.Experiments in
  let ws =
    let off, on = Lazy.force pair in
    [
      ( Tce_runner.Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on,
        Harness.Figures.of_pair off on );
    ]
  in
  List.iter
    (fun (r : Experiments.fig1_row) ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "percentage in range" true (v >= 0.0 && v <= 100.0))
        [ r.Experiments.checks; r.Experiments.tags; r.Experiments.math;
          r.Experiments.other_opt; r.Experiments.rest ];
      Alcotest.(check bool) "sums to ~100%" true
        (let s =
           r.Experiments.checks +. r.Experiments.tags +. r.Experiments.math
           +. r.Experiments.other_opt +. r.Experiments.rest
         in
         s > 99.0 && s < 101.0))
    (Experiments.fig1 ws);
  List.iter
    (fun (r : Experiments.fig3_row) ->
      let s =
        r.Experiments.mono_prop +. r.Experiments.mono_elem
        +. r.Experiments.poly_prop +. r.Experiments.poly_elem
      in
      Alcotest.(check bool) "fig3 stacks to 100%" true (s > 99.0 && s < 101.0))
    (Experiments.fig3 ws);
  List.iter
    (fun (r : Experiments.fig8_row) ->
      Alcotest.(check bool) "sane speedup range" true
        (r.Experiments.opt > -50.0 && r.Experiments.opt < 80.0))
    (Experiments.fig8 ws)

let test_table1_runs () =
  let t = Table1.run () in
  (* findGraphNode must be optimized with registered speculation *)
  let fn =
    Option.get (Tce_jit.Bytecode.find_func t.Tce_engine.Engine.prog "findGraphNode")
  in
  (match fn.Tce_jit.Bytecode.opt with
  | Some code ->
    Alcotest.(check bool) "speculation deps registered" true
      (code.Tce_jit.Lir.spec_deps <> [])
  | None -> Alcotest.fail "findGraphNode not optimized");
  (* and the Class List must carry a SpeculateMap bit somewhere *)
  let any_speculation =
    List.exists
      (fun (_, _, e) ->
        Tce_support.Bytemap.popcount e.Tce_core.Class_list.speculate_map > 0)
      (Tce_core.Class_list.dump t.Tce_engine.Engine.cl)
  in
  Alcotest.(check bool) "SpeculateMap set" true any_speculation

let () =
  Alcotest.run "metrics"
    [
      ( "harness",
        [
          Alcotest.test_case "checksums agree" `Quick test_checksums_agree;
          Alcotest.test_case "whole vs steady" `Quick test_steady_state_subset_of_whole;
          Alcotest.test_case "category sums" `Quick test_category_sums;
          Alcotest.test_case "mechanism removes checks" `Quick
            test_mechanism_removes_checks;
          Alcotest.test_case "fig3 partitions loads" `Quick
            test_fig3_accounts_every_load;
          Alcotest.test_case "energy consistent" `Quick test_energy_consistent;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "rows well-formed" `Quick test_experiment_rows_well_formed;
          Alcotest.test_case "table 1" `Quick test_table1_runs;
        ] );
    ]
