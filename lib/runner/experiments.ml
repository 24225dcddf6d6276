(** The paper's tables and figures (see DESIGN.md §4 for the index).
    Each roster figure is a view of the runner's rows: it reads a
    {!Record.workload} and its figure inputs ({!Record.figures}), prints
    the same rows/series the paper reports and returns the numbers for
    EXPERIMENTS.md / tests. *)

open Tce_support
open Tce_workloads
module F = Tce_metrics.Harness.Figures

let pct = Table.pct

(** One workload as the figures read it. *)
type input = Record.workload * Record.figures

(** The inputs of every row of [run], in row order.
    @raise Failure naming the first row that carries no figure inputs. *)
let inputs_of_run (run : Record.run) : input list =
  List.map
    (fun (w : Record.workload) ->
      match List.assoc_opt w.Record.name run.Record.figures with
      | Some f -> (w, f)
      | None ->
        failwith (Printf.sprintf "%s: row carries no figure inputs" w.Record.name))
    run.Record.workloads

(** The rows of the paper's ">1% check overhead" subset
    ({!Workloads.selected}), in input order. *)
let selected (rows : input list) : input list =
  List.filter
    (fun ((w : Record.workload), _) ->
      List.exists (fun s -> s.Workload.name = w.Record.name) Workloads.selected)
    rows

let suite_order = [ Workload.Octane; Workload.Sunspider; Workload.Kraken ]

(** Group results and append per-suite averages, like the paper's
    "<suite> average" bars. [suite_of r] is the suite's name. *)
let with_suite_averages rows value_of name_of suite_of =
  List.concat_map
    (fun suite ->
      let suite = Workload.suite_name suite in
      let in_suite = List.filter (fun r -> suite_of r = suite) rows in
      if in_suite = [] then []
      else
        let avg =
          Stats.mean (List.map value_of in_suite)
        in
        List.map (fun r -> (name_of r, value_of r)) in_suite
        @ [ (suite ^ " average", avg) ])
    suite_order

(* --- Figure 1: breakdown of dynamic instructions --- *)

type fig1_row = {
  f1_name : string;
  checks : float;
  tags : float;
  math : float;
  other_opt : float;
  rest : float;  (** non-optimized tier ("Rest of Code") *)
}

(** Dynamic instruction breakdown over the whole run (mechanism OFF — the
    characterization of the baseline engine, paper Fig. 1; our programs
    reach full optimization faster than the paper's, so "Rest of Code" is
    the warm-up/runtime share of the whole run). *)
let fig1 (rows : input list) : fig1_row list =
  List.map
    (fun ((w : Record.workload), (f : F.t)) ->
      let total = float_of_int f.F.whole_instrs_off in
      let c i = 100.0 *. float_of_int f.F.whole_by_cat_off.(i) /. Float.max total 1.0 in
      let opt = Array.fold_left ( + ) 0 f.F.whole_by_cat_off in
      {
        f1_name = w.Record.name;
        checks = c 0;
        tags = c 1;
        math = c 2;
        other_opt = c 4 +. c 3;
        rest =
          100.0
          *. float_of_int (f.F.whole_instrs_off - opt)
          /. Float.max total 1.0;
      })
    rows

let print_fig1 inputs =
  let rows = fig1 inputs in
  print_endline
    "Figure 1 — Breakdown of dynamic instructions (steady state, mechanism off)";
  print_string
    (Table.render
       ~headers:[ "benchmark"; "Checks"; "Tags/Untags"; "Math"; "OtherOpt"; "Rest" ]
       (List.map
          (fun r ->
            [ r.f1_name; pct r.checks; pct r.tags; pct r.math; pct r.other_opt;
              pct r.rest ])
          rows));
  let sel = List.map (fun (r : fig1_row) -> r.checks +. r.tags +. r.math) rows in
  Printf.printf
    "overhead categories (Checks+Tags+Math), mean over all benchmarks: %s\n\n"
    (pct (Stats.mean sel))

(* --- Figure 2: check overhead after object loads --- *)

type fig2_row = { f2_name : string; whole_app : float; opt_only : float }

(** Overhead of checking + untag-guard operations that verify values
    obtained from object property / elements loads. *)
let fig2 (rows : input list) : fig2_row list =
  List.map
    (fun ((w : Record.workload), (f : F.t)) ->
      {
        f2_name = w.Record.name;
        (* whole application: guard share of the entire run *)
        whole_app =
          100.0
          *. float_of_int f.F.whole_guards_off
          /. Float.max (float_of_int f.F.whole_instrs_off) 1.0;
        (* optimized code only: steady state *)
        opt_only =
          100.0
          *. float_of_int w.Record.guards_off
          /. Float.max (float_of_int f.F.opt_instrs_off) 1.0;
      })
    rows

let print_fig2 inputs =
  let rows = fig2 inputs in
  print_endline
    "Figure 2 — Checking/untagging overhead after object load accesses (mechanism off)";
  print_string
    (Table.render
       ~headers:[ "benchmark"; "whole app"; "optimized code" ]
       (List.map (fun r -> [ r.f2_name; pct r.whole_app; pct r.opt_only ]) rows));
  Printf.printf "mean: whole app %s, optimized code %s\n\n"
    (pct (Stats.mean (List.map (fun r -> r.whole_app) rows)))
    (pct (Stats.mean (List.map (fun r -> r.opt_only) rows)))

(* --- Figure 3: object loads hitting monomorphic slots --- *)

type fig3_row = {
  f3_name : string;
  mono_prop : float;
  mono_elem : float;
  poly_prop : float;
  poly_elem : float;
}

let fig3 (rows : input list) : fig3_row list =
  List.map
    (fun ((w : Record.workload), (f : F.t)) ->
      let mp, me, pp, pe = f.F.fig3_off in
      let total = float_of_int (max 1 (mp + me + pp + pe)) in
      let p x = 100.0 *. float_of_int x /. total in
      {
        f3_name = w.Record.name;
        mono_prop = p mp;
        mono_elem = p me;
        poly_prop = p pp;
        poly_elem = p pe;
      })
    rows

let print_fig3 inputs =
  let rows = fig3 inputs in
  print_endline
    "Figure 3 — Object load accesses to monomorphic properties / elements arrays";
  print_string
    (Table.render
       ~headers:
         [ "benchmark"; "mono props"; "mono elems"; "poly props"; "poly elems" ]
       (List.map
          (fun r ->
            [ r.f3_name; pct r.mono_prop; pct r.mono_elem; pct r.poly_prop;
              pct r.poly_elem ])
          rows));
  Printf.printf "mean monomorphic (props+elems): %s (paper: 66%%)\n\n"
    (pct (Stats.mean (List.map (fun r -> r.mono_prop +. r.mono_elem) rows)))

(* --- Figure 8: cycle-count improvement --- *)

type fig8_row = { f8_name : string; whole : float; opt : float; f8_suite : string }

let fig8 (rows : input list) : fig8_row list =
  List.map
    (fun ((w : Record.workload), (f : F.t)) ->
      {
        f8_name = w.Record.name;
        f8_suite = w.Record.suite;
        whole =
          Stats.improvement ~base:w.Record.whole_cycles_off
            ~opt:w.Record.whole_cycles_on;
        opt =
          Stats.improvement
            ~base:(float_of_int f.F.opt_cycles_off)
            ~opt:(float_of_int f.F.opt_cycles_on);
      })
    rows

let print_fig8 inputs =
  let rows = fig8 inputs in
  print_endline "Figure 8 — Improvement in number of cycles (speedup, %)";
  print_string
    (Table.render
       ~headers:[ "benchmark"; "whole application"; "optimized code" ]
       (List.map (fun r -> [ r.f8_name; pct r.whole; pct r.opt ]) rows));
  print_newline ();
  print_string
    (Table.bars ~width:40
       (with_suite_averages rows
          (fun r -> r.opt)
          (fun r -> r.f8_name)
          (fun r -> r.f8_suite)));
  Printf.printf
    "mean speedup: optimized code %s (paper: 7.1%%), whole application %s (paper: 5%%)\n\n"
    (pct (Stats.mean (List.map (fun r -> r.opt) rows)))
    (pct (Stats.mean (List.map (fun r -> r.whole) rows)))

(* --- Figure 9: energy reduction --- *)

type fig9_row = { f9_name : string; e_whole : float; e_opt : float }

let fig9 (rows : input list) : fig9_row list =
  List.map
    (fun ((w : Record.workload), (f : F.t)) ->
      (* whole-application energy: dynamic energy scaled to the whole run's
         instruction count (at the steady-state per-instruction rate) plus
         leakage over the whole run's cycles *)
      let leak_per_cycle =
        Tce_machine.Energy.default.Tce_machine.Energy.leakage_w
        /. Tce_machine.Energy.default.Tce_machine.Energy.freq_ghz
      in
      let whole_energy ~dynamic_nj ~opt_instrs ~whole_instrs ~whole_cycles =
        let dyn_per_instr = dynamic_nj /. Float.max 1.0 (float_of_int opt_instrs) in
        (float_of_int whole_instrs *. dyn_per_instr)
        +. (leak_per_cycle *. whole_cycles)
      in
      {
        f9_name = w.Record.name;
        e_whole =
          Stats.improvement
            ~base:
              (whole_energy ~dynamic_nj:f.F.energy_dynamic_nj_off
                 ~opt_instrs:f.F.opt_instrs_off ~whole_instrs:f.F.whole_instrs_off
                 ~whole_cycles:w.Record.whole_cycles_off)
            ~opt:
              (whole_energy ~dynamic_nj:f.F.energy_dynamic_nj_on
                 ~opt_instrs:f.F.opt_instrs_on ~whole_instrs:f.F.whole_instrs_on
                 ~whole_cycles:w.Record.whole_cycles_on);
        e_opt = Stats.improvement ~base:f.F.energy_nj_off ~opt:f.F.energy_nj_on;
      })
    rows

let print_fig9 inputs =
  let rows = fig9 inputs in
  print_endline "Figure 9 — Energy reduction (%)";
  print_string
    (Table.render
       ~headers:[ "benchmark"; "whole application"; "optimized code" ]
       (List.map (fun r -> [ r.f9_name; pct r.e_whole; pct r.e_opt ]) rows));
  Printf.printf
    "mean energy reduction: optimized %s (paper: 6.5%%), whole app %s (paper: 4.5%%)\n\n"
    (pct (Stats.mean (List.map (fun r -> r.e_opt) rows)))
    (pct (Stats.mean (List.map (fun r -> r.e_whole) rows)))

(* --- Table 2: simulated core --- *)

let print_table2 () =
  print_endline "Table 2 — Simulated micro-architecture configuration";
  Fmt.pr "%a@." Tce_machine.Config.pp Tce_machine.Config.default

(* --- §5.3 / §5.4 overheads and hardware cost --- *)

let print_overheads (inputs : input list) =
  print_endline "Section 5.3/5.4 — Incurred overheads and hardware cost";
  let rows =
    List.map
      (fun ((w : Record.workload), (f : F.t)) ->
        [
          w.Record.name;
          string_of_int w.Record.cc_accesses_on;
          Printf.sprintf "%.4f%%" (100.0 *. w.Record.cc_hit_rate_on);
          string_of_int f.F.hidden_classes_on;
          Printf.sprintf "%.1f%%"
            (Stats.percent f.F.heap_header_extra_bytes_on
               (max 1 f.F.heap_object_bytes_on));
          Printf.sprintf "%.1f%%"
            (Stats.percent f.F.obj_loads_first_line_on
               (max 1 f.F.obj_loads_total_on));
          string_of_int w.Record.cc_exceptions_on;
        ])
      inputs
  in
  print_string
    (Table.render
       ~headers:
         [ "benchmark"; "CC accesses"; "CC hit rate"; "classes";
           "obj size ovh"; "line-0 loads"; "exceptions" ]
       rows);
  let cc = Tce_core.Class_cache.create () in
  Printf.printf "Class Cache storage: %d bytes (paper: < 1.5 KB)\n\n"
    (Tce_core.Class_cache.storage_bytes cc)

(* --- hidden class census (§4.1 / §5.3.1) --- *)

let print_census (inputs : input list) =
  print_endline "Hidden-class census (paper §4.1: <= 32 for all but 2 benchmarks)";
  let rows =
    List.map
      (fun ((w : Record.workload), (f : F.t)) ->
        [ w.Record.name; string_of_int f.F.hidden_classes_off ])
      inputs
  in
  print_string (Table.render ~headers:[ "benchmark"; "hidden classes" ] rows);
  print_newline ()

(* --- CSV export --- *)

(** Write every figure's rows as CSV under [dir] (plots, spreadsheets):
    Figure 1 over all of [inputs], the others over their {!selected}
    subset. *)
let write_csvs ?(dir = "results") (inputs : input list) =
  let sel = selected inputs in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let save name headers rows =
    let oc = open_out (Filename.concat dir name) in
    output_string oc (Table.csv ~headers rows);
    close_out oc;
    Printf.printf "wrote %s\n%!" (Filename.concat dir name)
  in
  let f = Printf.sprintf "%.4f" in
  save "fig1.csv"
    [ "benchmark"; "checks"; "tags_untags"; "math"; "other_opt"; "rest" ]
    (List.map
       (fun r ->
         [ r.f1_name; f r.checks; f r.tags; f r.math; f r.other_opt; f r.rest ])
       (fig1 inputs));
  save "fig2.csv"
    [ "benchmark"; "whole_app_pct"; "optimized_pct" ]
    (List.map (fun r -> [ r.f2_name; f r.whole_app; f r.opt_only ]) (fig2 sel));
  save "fig3.csv"
    [ "benchmark"; "mono_props"; "mono_elems"; "poly_props"; "poly_elems" ]
    (List.map
       (fun r ->
         [ r.f3_name; f r.mono_prop; f r.mono_elem; f r.poly_prop; f r.poly_elem ])
       (fig3 sel));
  save "fig8.csv"
    [ "benchmark"; "whole_app_speedup"; "optimized_speedup" ]
    (List.map (fun r -> [ r.f8_name; f r.whole; f r.opt ]) (fig8 sel));
  save "fig9.csv"
    [ "benchmark"; "whole_app_energy_reduction"; "optimized_energy_reduction" ]
    (List.map (fun r -> [ r.f9_name; f r.e_whole; f r.e_opt ]) (fig9 sel))
