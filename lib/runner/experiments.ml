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

(* --- Ablations (EXPERIMENTS.md "Ablations") ---
   An ablation is a fixed list of (config, workload) pair cells, run as
   every roster row is ({!Runner.run_pairs}: the cell cache, then
   [Harness.run_pair] under the cell's config), and a table over their
   rows, which come back in pair order. *)

module E = Tce_engine.Engine

(** A table entry: a count, a percentage, or a speedup with the dynamic
    checks left. *)
type value = N of int | P of float | P_chk of float * int

type ablation = {
  title : string;  (** the lines above the table *)
  headers : string list;
  pairs : (E.config * Workload.t) list;
  rows : Record.cell list -> (string * value list) list;
  pct : float -> string;  (** how the table prints a percentage *)
  note : string;  (** the lines below it *)
  csv : string * string list;  (** the CSV's file name and headers *)
}

(* one row's entries as strings: [chk] gets a formatted speedup and its
   check count *)
let strings ~pct ~chk (label, vs) =
  label
  :: List.concat_map
       (function
         | N n -> [ string_of_int n ] | P p -> [ pct p ] | P_chk (p, k) -> chk (pct p) k)
       vs

let print_ablation a cells =
  let chk p k = [ Printf.sprintf "%s (chk %d)" p k ] in
  print_string a.title;
  print_string
    (Table.render ~headers:a.headers (List.map (strings ~pct:a.pct ~chk) (a.rows cells)));
  print_string a.note

(* [items] with their [per] consecutive cells each *)
let per_item items ~per (cells : Record.cell list) =
  let a = Array.of_list cells in
  List.combine items
    (List.init (Array.length a / per) (fun i -> Array.to_list (Array.sub a (i * per) per)))

let improvement base opt =
  Stats.improvement ~base:(float_of_int base) ~opt:(float_of_int opt)

(** A: each of [ws] under each Class Cache geometry [(entries, ways)]:
    the steady-state hit rate. *)
let cc_sweep_of ~geometries ws =
  let headers =
    "workload" :: List.map (fun (e, w) -> Printf.sprintf "%dx%dw" e w) geometries
  in
  let config (entries, ways) =
    { E.default_config with E.cc_config = { Tce_core.Class_cache.entries; ways } }
  in
  {
    title = "Ablation A — Class Cache geometry vs hit rate (128x2 is the paper's pick)\n";
    headers;
    pairs = List.concat_map (fun w -> List.map (fun g -> (config g, w)) geometries) ws;
    rows =
      (fun cells ->
        List.map
          (fun ((w : Workload.t), cs) ->
            (w.Workload.name, List.map (fun (r, _) -> P (100.0 *. r.Record.cc_hit_rate_on)) cs))
          (per_item ws ~per:(List.length geometries) cells));
    pct = Printf.sprintf "%.3f%%";
    note = "\n";
    csv = ("ablation_a.csv", headers);
  }

(** B: each profile-breaking store [fraction] of {!Synthetic.poly}, over
    the whole run: the ValidMap is one-way, so a profile breaks at most
    once and the cost is paid in the transient, where the steady-state
    window does not look. *)
let poly_sweep_of fractions =
  {
    title =
      "Ablation B — speedup and exceptions vs fraction of profile-breaking stores\n\
       (whole-run measurement: breakage costs are transient by design)\n";
    headers =
      [ "poly fraction"; "cycles off"; "cycles on"; "speedup"; "cc-exceptions"; "deopts" ];
    pairs = List.map (fun f -> (E.default_config, Synthetic.poly f)) fractions;
    rows =
      List.map2
        (fun fraction ((r, f) : Record.cell) ->
          let f = Option.get f in
          let off = int_of_float r.Record.whole_cycles_off
          and on = int_of_float r.Record.whole_cycles_on in
          ( Printf.sprintf "%.4f" fraction,
            [ N off; N on; P (improvement off on); N f.F.whole_cc_exceptions_on;
              N f.F.whole_deopts_on ] ))
        fractions;
    pct;
    note = "\n";
    csv =
      ( "ablation_b.csv",
        [ "poly_fraction"; "whole_cycles_off"; "whole_cycles_on"; "speedup_pct";
          "cc_exceptions"; "deopts" ] );
  }

(** C: movClassIDArray hoisting (paper §4.2.1.3) off, then on, over
    {!Synthetic.elem_stores} of each size: steady-state optimized cycles
    and Class Cache ops. *)
let hoisting_of sizes =
  {
    title = "Ablation C — movClassIDArray loop hoisting on/off\n";
    headers =
      [ "workload"; "cycles unhoisted"; "cycles hoisted"; "gain"; "ccops unhoisted";
        "ccops hoisted" ];
    pairs =
      List.concat_map
        (fun n ->
          let w = Synthetic.elem_stores n in
          [ ({ E.default_config with E.hoisting = false }, w); (E.default_config, w) ])
        sizes;
    rows =
      (fun cells ->
        List.map
          (fun (n, cs) ->
            match List.map (fun (_, f) -> Option.get f) cs with
            | [ off; on ] ->
              ( Printf.sprintf "elem-stores-%d" n,
                [ N off.F.opt_cycles_on; N on.F.opt_cycles_on;
                  P (improvement off.F.opt_cycles_on on.F.opt_cycles_on);
                  N off.F.ccops_on; N on.F.ccops_on ] )
            | _ -> assert false)
          (per_item sizes ~per:2 cells));
    pct;
    note = "\n";
    csv =
      ( "ablation_c.csv",
        [ "workload"; "cycles_unhoisted"; "cycles_hoisted"; "gain_pct";
          "ccops_unhoisted"; "ccops_hoisted" ] );
  }

(** D: the related work (paper §2) on each of [ws], steady state. Checked
    Load performs property-load checks implicitly in hardware but never
    removes them; the Class Cache removes them. A benchmark's default cell
    gives the base (mechanism off) and the Class Cache (on); the
    mechanism-off side of its [checked_load] cell gives Checked Load. *)
let checked_load_of ws =
  {
    title = "Ablation D — Checked Load (implicit checks) vs Class Cache (removed checks)\n";
    headers =
      [ "benchmark"; "cycles base"; "checked-load speedup"; "class-cache speedup";
        "checks base" ];
    pairs =
      List.concat_map
        (fun w -> [ (E.default_config, w); ({ E.default_config with E.checked_load = true }, w) ])
        ws;
    rows =
      (fun cells ->
        List.map
          (fun ((w : Workload.t), cs) ->
            match cs with
            | [ (r, Some b); (cl, Some cl_f) ] ->
              let speedup = improvement b.F.opt_cycles_off in
              ( w.Workload.name,
                [ N b.F.opt_cycles_off;
                  P_chk (speedup cl_f.F.opt_cycles_off, cl.Record.checks_off);
                  P_chk (speedup b.F.opt_cycles_on, r.Record.checks_on);
                  N r.Record.checks_off ] )
            | _ -> assert false)
          (per_item ws ~per:2 cells));
    pct;
    note =
      "(Checked Load fuses only property-load map checks; the Class Cache also\n\
       removes SMI/Non-SMI checks and untag guards — paper §2 vs §4.3)\n\n";
    csv =
      ( "ablation_d.csv",
        [ "benchmark"; "cycles_base"; "checked_load_speedup_pct"; "checked_load_checks";
          "class_cache_speedup_pct"; "class_cache_checks"; "checks_base" ] );
  }

(* A's synthetic workloads make ~3 hidden classes per constructor (the
   transition chain), so 8, 24 and 48 classes need about 24, 72 and 144
   Class Cache entries: the last exceeds the paper's 128x2 pick. *)
let cc_sweep =
  cc_sweep_of
    ~geometries:[ (8, 2); (16, 2); (32, 2); (64, 2); (128, 1); (128, 2); (128, 4); (256, 2) ]
    (List.map Synthetic.classes [ 8; 24; 48 ] @ [ Option.get (Workloads.by_name "ai-astar") ])

let poly_sweep = poly_sweep_of [ 0.0; 0.0001; 0.001; 0.01; 0.1 ]
let hoisting = hoisting_of [ 32; 128; 512 ]

let checked_load =
  checked_load_of
    (List.filter_map Workloads.by_name [ "ai-astar"; "richards"; "deltablue"; "box2d"; "3d-cube" ])

let ablations = [ cc_sweep; poly_sweep; hoisting; checked_load ]

(* --- CSV export --- *)

(** Write every figure's rows as CSV under [dir] (plots, spreadsheets):
    Figure 1 over all of [inputs], the others over their {!selected}
    subset; then each of {!ablations} over its cells, as [run_pairs]
    returns them. *)
let write_csvs ?(dir = "results") ~run_pairs (inputs : input list) =
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
    (List.map (fun r -> [ r.f9_name; f r.e_whole; f r.e_opt ]) (fig9 sel));
  let chk p k = [ p; string_of_int k ] in
  List.iter
    (fun a ->
      save (fst a.csv) (snd a.csv)
        (List.map (strings ~pct:f ~chk) (a.rows (run_pairs a.pairs))))
    ablations
