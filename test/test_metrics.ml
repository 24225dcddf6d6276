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
  Alcotest.(check string) "matches interpreter" (Harness.reference tiny)
    on.Harness.observable

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
  let cells =
    let off, on = Lazy.force pair in
    [
      ( Tce_runner.Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on,
        Some (Harness.Figures.of_pair off on) );
    ]
  in
  (* each row's percentages, from the view called [name] *)
  let rows name =
    let v = List.find (fun (v : Experiments.view) -> v.name = name) Experiments.views in
    List.map
      (fun (_, vs) ->
        List.map (function Experiments.P p -> p | _ -> Alcotest.fail "not a percentage") vs)
      (v.Experiments.rows cells)
  in
  List.iter
    (fun ps ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "percentage in range" true (v >= 0.0 && v <= 100.0))
        ps;
      let s = List.fold_left ( +. ) 0.0 ps in
      Alcotest.(check bool) "sums to ~100%" true (s > 99.0 && s < 101.0))
    (rows "fig1");
  List.iter
    (fun ps ->
      let s = List.fold_left ( +. ) 0.0 ps in
      Alcotest.(check bool) "fig3 stacks to 100%" true (s > 99.0 && s < 101.0))
    (rows "fig3");
  List.iter
    (fun ps ->
      let opt = List.nth ps 1 in
      Alcotest.(check bool) "sane speedup range" true (opt > -50.0 && opt < 80.0))
    (rows "fig8")

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

(* --- the ablations: views of cached runner rows ---

   Reference copies of the measurement protocols the ablations used
   before their tables became views of runner rows. Each drives the
   engine itself, on a cheap subset of every ablation's cells. *)

module E = Tce_engine.Engine
module Experiments = Tce_runner.Experiments
module Synthetic = Tce_workloads.Synthetic

(* set-up and 9 warm-up calls unmeasured, then counters reset and one
   measured call: the engine and the measured call's optimized cycles *)
let ref_steady ~config (w : Tce_workloads.Workload.t) =
  let t = E.of_source ~config w.Tce_workloads.Workload.source in
  E.set_measuring t false;
  ignore (E.run_main t);
  for _ = 1 to 9 do
    ignore (E.call_by_name t "bench" [||])
  done;
  E.reset_measurement t;
  let c0 = E.opt_cycles t in
  E.set_measuring t true;
  ignore (E.call_by_name t "bench" [||]);
  (t, E.opt_cycles t - c0)

(* A: steady-state Class Cache hit rate (%) *)
let ref_hit_rate ~config w =
  let t, _ = ref_steady ~config w in
  100.0 *. Tce_core.Class_cache.hit_rate t.E.cc

(* B: whole run measured from the first instruction: (cycles,
   cc-exceptions, deopts) *)
let ref_whole ~config (w : Tce_workloads.Workload.t) =
  let t = E.of_source ~config w.Tce_workloads.Workload.source in
  E.set_measuring t true;
  ignore (E.run_main t);
  for _ = 1 to 10 do
    ignore (E.call_by_name t "bench" [||])
  done;
  let c = t.E.counters in
  ( E.opt_cycles t + int_of_float (E.baseline_cycles t),
    c.Tce_machine.Counters.cc_exception_deopts,
    c.Tce_machine.Counters.deopts )

(* C: steady-state (optimized cycles, C_ccop instructions) *)
let ref_hoisting ~config w =
  let t, cycles = ref_steady ~config w in
  (cycles, Tce_machine.Counters.cat t.E.counters Tce_jit.Categories.C_ccop)

(* D: steady-state (optimized cycles, dynamic checks) of one Harness.run *)
let ref_checks ~config w =
  let r = Harness.run ~config w in
  (r.Harness.opt_cycles, r.Harness.by_cat.(0))

let improvement base opt =
  Tce_support.Stats.improvement ~base:(float_of_int base) ~opt:(float_of_int opt)

(* the views' table entries; constructors only, so no view code is
   shared with the reference *)
type value = Experiments.value = N of int | P of float | P_chk of float * int | S of string

let value =
  Alcotest.testable
    (fun ppf -> function
      | N n -> Format.fprintf ppf "%d" n
      | P p -> Format.fprintf ppf "%h" p
      | P_chk (p, k) -> Format.fprintf ppf "%h (chk %d)" p k
      | S s -> Format.pp_print_string ppf s)
    ( = )

let test_ablations_match_reference () =
  let geometries = [ (32, 2); (64, 2) ] and a_ws = [ Synthetic.classes 48 ] in
  let fractions = [ 0.0; 0.0001 ] and sizes = [ 32 ] in
  let d_ws = [ Option.get (Tce_workloads.Workloads.by_name "deltablue") ] in
  let cache_dir = Filename.temp_file "tce-ablation-cache" "" in
  Sys.remove cache_dir;
  (* every view through one cache: (rows, misses) *)
  let views () =
    let cache = Tce_runner.Cache.create ~dir:cache_dir () in
    let cells = Experiments.reader ~cache [] in
    let rows (a : Experiments.view) = a.Experiments.rows (cells a)
    in
    ( rows (Experiments.cc_sweep_of ~geometries a_ws)
      @ rows (Experiments.poly_sweep_of fractions)
      @ rows (Experiments.hoisting_of sizes)
      @ rows (Experiments.checked_load_of d_ws),
      (Tce_runner.Cache.stats cache).Tce_runner.Cache.misses )
  in
  let cold, _ = views () in
  let cc entries ways =
    { E.default_config with E.cc_config = { Tce_core.Class_cache.entries; ways } }
  in
  let a =
    List.map
      (fun (w : Tce_workloads.Workload.t) ->
        ( w.Tce_workloads.Workload.name,
          List.map (fun (e, ways) -> P (ref_hit_rate ~config:(cc e ways) w))
            geometries ))
      a_ws
  in
  let b =
    List.map
      (fun f ->
        let w = Synthetic.poly f in
        let off, _, _ = ref_whole ~config:{ E.default_config with E.mechanism = false } w in
        let on, exc, deopts = ref_whole ~config:E.default_config w in
        ( Printf.sprintf "%.4f" f,
          [ N off; N on; P (improvement off on); N exc; N deopts ] ))
      fractions
  in
  let c =
    List.map
      (fun n ->
        let w = Synthetic.elem_stores n in
        let c_off, ops_off =
          ref_hoisting ~config:{ E.default_config with E.hoisting = false } w
        in
        let c_on, ops_on = ref_hoisting ~config:E.default_config w in
        ( Printf.sprintf "elem-stores-%d" n,
          [ N c_off; N c_on; P (improvement c_off c_on); N ops_off; N ops_on ] ))
      sizes
  in
  let d =
    List.map
      (fun (w : Tce_workloads.Workload.t) ->
        let base = { E.default_config with E.mechanism = false } in
        let c0, k0 = ref_checks ~config:base w in
        let c1, k1 = ref_checks ~config:{ base with E.checked_load = true } w in
        let c2, k2 = ref_checks ~config:E.default_config w in
        ( w.Tce_workloads.Workload.name,
          [ N c0; P_chk (improvement c0 c1, k1); P_chk (improvement c0 c2, k2); N k0 ] ))
      d_ws
  in
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "row" name name';
      Alcotest.(check (list value)) name expected got)
    (a @ b @ c @ d) cold;
  let warm, misses = views () in
  Alcotest.(check int) "a second run simulates nothing" 0 misses;
  Alcotest.(check bool) "warm views equal cold" true (warm = cold);
  Array.iter (fun f -> Sys.remove (Filename.concat cache_dir f)) (Sys.readdir cache_dir);
  Sys.rmdir cache_dir

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
          Alcotest.test_case "ablations equal the reference protocols" `Quick
            test_ablations_match_reference;
        ] );
    ]
