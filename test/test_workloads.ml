(* Integration tests over the full benchmark suite: every workload runs in
   all three modes and must produce identical observable results;
   workload-level invariants (class counts, suite structure) are pinned. *)

open Tce_workloads

let test_registry () =
  Alcotest.(check bool) "at least 28 workloads" true (List.length Workloads.all >= 28);
  Alcotest.(check bool) "selected subset is strict" true
    (List.length Workloads.selected < List.length Workloads.all
    && List.length Workloads.selected >= 24);
  Alcotest.(check bool) "names unique" true
    (let names = List.map (fun w -> w.Workload.name) Workloads.all in
     List.length (List.sort_uniq compare names) = List.length names);
  Alcotest.(check bool) "lookup works" true (Workloads.by_name "ai-astar" <> None);
  Alcotest.(check bool) "all three suites populated" true
    (List.for_all
       (fun s -> Workloads.by_suite s <> [])
       [ Workload.Octane; Workload.Sunspider; Workload.Kraken ])

let test_sources_parse () =
  List.iter
    (fun w ->
      match Tce_minijs.Parser.parse w.Workload.source with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s does not parse: %s" w.Workload.name (Printexc.to_string e))
    Workloads.all

module H = Tce_metrics.Harness

(* Each workload simulated once per mode, for all four integration cases
   below: the interpreter's observable ({!H.reference}) and the measured
   mechanism-off/on pair. *)
let runs =
  List.map (fun w -> (w, lazy (H.reference w, H.run_pair w))) Workloads.all

let selected_runs =
  List.filter (fun (w, _) -> w.Workload.selected) runs

let test_every_workload_differential () =
  (* the interpreter, mechanism off and mechanism on must compute the
     same thing in every iteration, measured or not *)
  List.iter
    (fun (w, r) ->
      let interp, (off, on) = Lazy.force r in
      if not (interp = off.H.observable && off.H.observable = on.H.observable)
      then
        Alcotest.failf "%s diverges: interp=%S off=%S on=%S (last: off=%s on=%s)"
          w.Workload.name interp off.H.observable on.H.observable off.H.checksum
          on.H.checksum)
    runs

let test_class_budget () =
  (* paper §4.1: benchmarks use few hidden classes (ClassID is 8 bits) *)
  List.iter
    (fun (w, r) ->
      let _, (_, on) = Lazy.force r in
      if on.H.hidden_classes > 64 then
        Alcotest.failf "%s uses %d classes" w.Workload.name on.H.hidden_classes)
    runs

let test_mechanism_never_regresses_much () =
  (* guard against the mechanism becoming a pessimization: optimized-code
     cycles with the mechanism must stay within 3% of without, for every
     selected benchmark (the paper reports all-positive speedups) *)
  List.iter
    (fun (w, r) ->
      let _, (off, on) = Lazy.force r in
      let imp =
        Tce_support.Stats.improvement
          ~base:(float_of_int off.H.opt_cycles)
          ~opt:(float_of_int on.H.opt_cycles)
      in
      if imp < -3.0 then
        Alcotest.failf "%s regresses by %.2f%%" w.Workload.name (-.imp))
    selected_runs

let test_cc_hit_rate_high () =
  (* paper §5.3.3: >99.9% hit rate at 128 entries, 2-way *)
  List.iter
    (fun (w, r) ->
      let _, (_, on) = Lazy.force r in
      if on.H.cc_accesses > 1000 && on.H.cc_hit_rate < 0.999 then
        Alcotest.failf "%s: CC hit rate %.4f" w.Workload.name on.H.cc_hit_rate)
    selected_runs

let test_synthetic_generators_run () =
  let src1 = Synthetic.poly_sweep ~n_classes:3 ~poly_fraction:0.01 ~objs:16 ~rounds:5 in
  let src2 = Synthetic.class_count_sweep ~n_classes:5 ~props_per_class:3 ~rounds:5 in
  List.iter
    (fun src ->
      let t = Tce_engine.Engine.of_source src in
      ignore (Tce_engine.Engine.run_main t);
      ignore (Tce_engine.Engine.call_by_name t "bench" [||]))
    [ src1; src2 ]

let () =
  Alcotest.run "workloads"
    [
      ( "structure",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "sources parse" `Quick test_sources_parse;
          Alcotest.test_case "synthetic generators" `Quick
            test_synthetic_generators_run;
        ] );
      ( "integration",
        [
          Alcotest.test_case "differential (all modes)" `Slow
            test_every_workload_differential;
          Alcotest.test_case "class budget" `Slow test_class_budget;
          Alcotest.test_case "no large regressions" `Slow
            test_mechanism_never_regresses_much;
          Alcotest.test_case "CC hit rate" `Slow test_cc_hit_rate_high;
        ] );
    ]
