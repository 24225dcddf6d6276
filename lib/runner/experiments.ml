(** The paper's tables and figures (see DESIGN.md §4 for the index).
    Every experiment is a {!view}: the rows it reads, a table over them
    and the lines around it. [fig] prints the views, [csv] writes the
    ones that carry a CSV, and tests read their rows. *)

open Tce_support
open Tce_workloads
module F = Tce_metrics.Harness.Figures
module E = Tce_engine.Engine

let pct = Table.pct

(** A table entry: a count, a percentage, a speedup with the dynamic
    checks left, or text printed as it is. *)
type value = N of int | P of float | P_chk of float * int | S of string

(** Where a view's rows come from. *)
type reads =
  | Nothing  (** a table of the engine or the core, not of rows *)
  | All  (** the roster rows of every workload ({!Workloads.all}) *)
  | Selected  (** the roster rows of the paper's ">1% check overhead" subset *)
  | Cells of (E.config * Workload.t) list
      (** its own pair cells, run as every roster row is
          ({!Runner.run_pairs}: the cell cache, then [Harness.run_pair]
          under the cell's config); their rows come back in pair order *)

type view = {
  name : string;  (** what [fig] calls it *)
  title : string;  (** the lines above the table *)
  headers : string list;  (** the printed table's; [[]] prints no table *)
  csv : (string * string list) option;  (** the CSV's file name and headers *)
  reads : reads;
  rows : Record.cell list -> (string * value list) list;
  pct : float -> string;  (** how the table prints a percentage *)
  note : (string * value list) list -> string;
      (** the lines below the table, from its rows *)
}

(* one row's entries as strings: [chk] gets a formatted speedup and its
   check count *)
let strings ~pct ~chk (label, vs) =
  label
  :: List.concat_map
       (function
         | N n -> [ string_of_int n ]
         | P p -> [ pct p ]
         | P_chk (p, k) -> chk (pct p) k
         | S s -> [ s ])
       vs

(** Print [v]'s title, its table over the rows of [cells] and its note. *)
let print v cells =
  let chk p k = [ Printf.sprintf "%s (chk %d)" p k ] in
  let rows = v.rows cells in
  print_string v.title;
  if v.headers <> [] then
    print_string
      (Table.render ~headers:v.headers (List.map (strings ~pct:v.pct ~chk) rows));
  print_string (v.note rows)

(** [reader ~cache views]: the cells each of [views] reads, through
    [cache]. The roster rows are simulated once, on first use: over every
    workload when one of [views] reads [All], else over the selected
    ones only. *)
let reader ~cache views =
  let all = List.exists (fun v -> match v.reads with All -> true | _ -> false) views in
  let roster =
    lazy
      (Runner.run_pairs ~cache
         (List.map
            (fun w -> (E.default_config, w))
            (if all then Workloads.all else Workloads.selected)))
  in
  fun v ->
    match v.reads with
    | Nothing -> []
    | All -> Lazy.force roster
    | Selected ->
      List.filter
        (fun ((w : Record.workload), _) ->
          List.exists (fun s -> s.Workload.name = w.Record.name) Workloads.selected)
        (Lazy.force roster)
    | Cells pairs -> Runner.run_pairs ~cache pairs

(* --- the roster figures: one row per workload, from the runner's row
   and its figure inputs --- *)

let figures ((w : Record.workload), f) =
  match f with
  | Some f -> f
  | None -> failwith (Printf.sprintf "%s: row carries no figure inputs" w.Record.name)

let roster_view ~name ~reads ~title ~headers ?csv ~note entries =
  {
    name;
    title;
    headers;
    csv;
    reads;
    rows =
      List.map (fun ((w : Record.workload), _ as c) ->
          (w.Record.name, entries w (figures c)));
    pct;
    note;
  }

(* a row's percentages *)
let pcts (_, vs) = Array.of_list (List.map (function P p -> p | _ -> Float.nan) vs)

(* [pct] of the mean over [rows] of [f] of a row's percentages *)
let mean f rows = pct (Stats.mean (List.map (fun r -> f (pcts r)) rows))

let suite_order = [ Workload.Octane; Workload.Sunspider; Workload.Kraken ]

(** Group [(label, value)] bars by their workload's suite and append
    per-suite averages, like the paper's "<suite> average" bars. *)
let with_suite_averages bars =
  List.concat_map
    (fun suite ->
      let in_suite =
        List.filter
          (fun (name, _) ->
            Option.map (fun w -> w.Workload.suite) (Workloads.by_name name) = Some suite)
          bars
      in
      if in_suite = [] then []
      else
        in_suite
        @ [ (Workload.suite_name suite ^ " average", Stats.mean (List.map snd in_suite)) ])
    suite_order

(** Figure 1: dynamic instruction breakdown over the whole run (mechanism
    OFF — the characterization of the baseline engine; our programs reach
    full optimization faster than the paper's, so "Rest of Code" is the
    warm-up/runtime share of the whole run). *)
let fig1 =
  roster_view ~name:"fig1" ~reads:All
    ~title:"Figure 1 — Breakdown of dynamic instructions (steady state, mechanism off)\n"
    ~headers:[ "benchmark"; "Checks"; "Tags/Untags"; "Math"; "OtherOpt"; "Rest" ]
    ~csv:("fig1.csv", [ "benchmark"; "checks"; "tags_untags"; "math"; "other_opt"; "rest" ])
    ~note:(fun rows ->
      Printf.sprintf
        "overhead categories (Checks+Tags+Math), mean over all benchmarks: %s\n\n"
        (mean (fun p -> p.(0) +. p.(1) +. p.(2)) rows))
    (fun _ f ->
      let total = float_of_int f.F.whole_instrs_off in
      let c i = 100.0 *. float_of_int f.F.whole_by_cat_off.(i) /. Float.max total 1.0 in
      let opt = Array.fold_left ( + ) 0 f.F.whole_by_cat_off in
      [ P (c 0); P (c 1); P (c 2); P (c 4 +. c 3);
        (* the non-optimized tier ("Rest of Code") *)
        P (100.0 *. float_of_int (f.F.whole_instrs_off - opt) /. Float.max total 1.0) ])

(** Figure 2: overhead of checking + untag-guard operations that verify
    values obtained from object property / elements loads. *)
let fig2 =
  roster_view ~name:"fig2" ~reads:Selected
    ~title:"Figure 2 — Checking/untagging overhead after object load accesses (mechanism off)\n"
    ~headers:[ "benchmark"; "whole app"; "optimized code" ]
    ~csv:("fig2.csv", [ "benchmark"; "whole_app_pct"; "optimized_pct" ])
    ~note:(fun rows ->
      Printf.sprintf "mean: whole app %s, optimized code %s\n\n"
        (mean (fun p -> p.(0)) rows) (mean (fun p -> p.(1)) rows))
    (fun w f ->
      [ (* whole application: guard share of the entire run *)
        P
          (100.0
          *. float_of_int f.F.whole_guards_off
          /. Float.max (float_of_int f.F.whole_instrs_off) 1.0);
        (* optimized code only: steady state *)
        P
          (100.0
          *. float_of_int w.Record.guards_off
          /. Float.max (float_of_int f.F.opt_instrs_off) 1.0) ])

(** Figure 3: object loads hitting monomorphic slots. *)
let fig3 =
  roster_view ~name:"fig3" ~reads:Selected
    ~title:"Figure 3 — Object load accesses to monomorphic properties / elements arrays\n"
    ~headers:[ "benchmark"; "mono props"; "mono elems"; "poly props"; "poly elems" ]
    ~csv:("fig3.csv", [ "benchmark"; "mono_props"; "mono_elems"; "poly_props"; "poly_elems" ])
    ~note:(fun rows ->
      Printf.sprintf "mean monomorphic (props+elems): %s (paper: 66%%)\n\n"
        (mean (fun p -> p.(0) +. p.(1)) rows))
    (fun _ f ->
      let mp, me, pp, pe = f.F.fig3_off in
      let total = float_of_int (max 1 (mp + me + pp + pe)) in
      let p x = P (100.0 *. float_of_int x /. total) in
      [ p mp; p me; p pp; p pe ])

(** Figure 8: cycle-count improvement. *)
let fig8 =
  roster_view ~name:"fig8" ~reads:Selected
    ~title:"Figure 8 — Improvement in number of cycles (speedup, %)\n"
    ~headers:[ "benchmark"; "whole application"; "optimized code" ]
    ~csv:("fig8.csv", [ "benchmark"; "whole_app_speedup"; "optimized_speedup" ])
    ~note:(fun rows ->
      "\n"
      ^ Table.bars ~width:40
          (with_suite_averages (List.map (fun ((name, _) as r) -> (name, (pcts r).(1))) rows))
      ^ Printf.sprintf
          "mean speedup: optimized code %s (paper: 7.1%%), whole application %s (paper: 5%%)\n\n"
          (mean (fun p -> p.(1)) rows) (mean (fun p -> p.(0)) rows))
    (fun w f ->
      [ P (Stats.improvement ~base:w.Record.whole_cycles_off ~opt:w.Record.whole_cycles_on);
        P
          (Stats.improvement
             ~base:(float_of_int f.F.opt_cycles_off)
             ~opt:(float_of_int f.F.opt_cycles_on)) ])

(** Figure 9: energy reduction. *)
let fig9 =
  (* whole-application energy: dynamic energy scaled to the whole run's
     instruction count (at the steady-state per-instruction rate) plus
     leakage over the whole run's cycles *)
  let leak_per_cycle =
    Tce_machine.Energy.default.Tce_machine.Energy.leakage_w
    /. Tce_machine.Energy.default.Tce_machine.Energy.freq_ghz
  in
  let whole_energy ~dynamic_nj ~opt_instrs ~whole_instrs ~whole_cycles =
    let dyn_per_instr = dynamic_nj /. Float.max 1.0 (float_of_int opt_instrs) in
    (float_of_int whole_instrs *. dyn_per_instr) +. (leak_per_cycle *. whole_cycles)
  in
  roster_view ~name:"fig9" ~reads:Selected ~title:"Figure 9 — Energy reduction (%)\n"
    ~headers:[ "benchmark"; "whole application"; "optimized code" ]
    ~csv:
      ( "fig9.csv",
        [ "benchmark"; "whole_app_energy_reduction"; "optimized_energy_reduction" ] )
    ~note:(fun rows ->
      Printf.sprintf
        "mean energy reduction: optimized %s (paper: 6.5%%), whole app %s (paper: 4.5%%)\n\n"
        (mean (fun p -> p.(1)) rows) (mean (fun p -> p.(0)) rows))
    (fun w f ->
      [ P
          (Stats.improvement
             ~base:
               (whole_energy ~dynamic_nj:f.F.energy_dynamic_nj_off
                  ~opt_instrs:f.F.opt_instrs_off ~whole_instrs:f.F.whole_instrs_off
                  ~whole_cycles:w.Record.whole_cycles_off)
             ~opt:
               (whole_energy ~dynamic_nj:f.F.energy_dynamic_nj_on
                  ~opt_instrs:f.F.opt_instrs_on ~whole_instrs:f.F.whole_instrs_on
                  ~whole_cycles:w.Record.whole_cycles_on));
        P (Stats.improvement ~base:f.F.energy_nj_off ~opt:f.F.energy_nj_on) ])

(* --- Figures 10 and 11: the checks the mechanism removes, by check
   kind. They read a row's per-kind counts alone, so they also read rows
   without figure inputs, such as the committed baseline's. --- *)

let check_kinds =
  List.map Tce_jit.Categories.check_kind_name Tce_jit.Categories.all_check_kinds

(* a row's checks of [kind], mechanism off and on; a row without the
   kind has none *)
let kind_counts (w : Record.workload) kind =
  match List.find_opt (fun (k, _, _) -> k = kind) w.Record.checks_by_kind with
  | Some (_, off, on) -> (off, on)
  | None -> (0, 0)

(* the share of the checks off that are gone on; [-] when none are off *)
let removal (off, on) = if off = 0 then S "-" else P (Stats.percent (off - on) off)

(** Figure 10: dynamic check instructions of each kind, summed over every
    workload, and their total. *)
let fig10 =
  let sum kind =
    List.fold_left
      (fun (off, on) (w, _) ->
        let o, n = kind_counts w kind in
        (off + o, on + n))
      (0, 0)
  in
  {
    name = "fig10";
    title = "Figure 10 — Checks removed by kind (dynamic check instructions, all workloads)\n";
    headers = [ "check kind"; "off"; "on"; "removed"; "removal" ];
    csv = Some ("fig10.csv", [ "check_kind"; "checks_off"; "checks_on"; "removed"; "removal_pct" ]);
    reads = All;
    rows =
      (fun cells ->
        let kinds = List.map (fun k -> (k, sum k cells)) check_kinds in
        let total =
          List.fold_left (fun (off, on) (_, (o, n)) -> (off + o, on + n)) (0, 0) kinds
        in
        List.map
          (fun (k, ((off, on) as c)) -> (k, [ N off; N on; N (off - on); removal c ]))
          (kinds @ [ ("total", total) ]));
    pct;
    note = (fun _ -> "\n");
  }

(** Figure 11: each workload's removal rate per check kind. *)
let fig11 =
  {
    name = "fig11";
    title =
      "Figure 11 — Removal rate by check kind per benchmark (- where it runs no check of a kind)\n";
    headers = "benchmark" :: check_kinds;
    csv =
      Some
        ( "fig11.csv",
          "benchmark" :: List.map (String.map (function '-' -> '_' | c -> c)) check_kinds );
    reads = All;
    rows =
      List.map (fun ((w : Record.workload), _) ->
          (w.Record.name, List.map (fun k -> removal (kind_counts w k)) check_kinds));
    pct;
    note = (fun _ -> "\n");
  }

(** §5.3 / §5.4: overheads and hardware cost. *)
let overheads =
  roster_view ~name:"overheads" ~reads:Selected
    ~title:"Section 5.3/5.4 — Incurred overheads and hardware cost\n"
    ~headers:
      [ "benchmark"; "CC accesses"; "CC hit rate"; "classes"; "obj size ovh"; "line-0 loads";
        "exceptions" ]
    ~note:(fun _ ->
      Printf.sprintf "Class Cache storage: %d bytes (paper: < 1.5 KB)\n\n"
        (Tce_core.Class_cache.storage_bytes (Tce_core.Class_cache.create ())))
    (fun w f ->
      [ N w.Record.cc_accesses_on;
        S (Printf.sprintf "%.4f%%" (100.0 *. w.Record.cc_hit_rate_on));
        N f.F.hidden_classes_on;
        P (Stats.percent f.F.heap_header_extra_bytes_on (max 1 f.F.heap_object_bytes_on));
        P (Stats.percent f.F.obj_loads_first_line_on (max 1 f.F.obj_loads_total_on));
        N w.Record.cc_exceptions_on ])

(** The hidden-class census (§4.1 / §5.3.1). *)
let census =
  roster_view ~name:"census" ~reads:All
    ~title:"Hidden-class census (paper §4.1: <= 32 for all but 2 benchmarks)\n"
    ~headers:[ "benchmark"; "hidden classes" ]
    ~note:(fun _ -> "\n")
    (fun _ f -> [ N f.F.hidden_classes_off ])

(** A view of no rows: [title] and then [body ()]. *)
let plain ~name ~title body =
  {
    name;
    title;
    headers = [];
    csv = None;
    reads = Nothing;
    rows = (fun _ -> []);
    pct;
    note = (fun _ -> body ());
  }

let table1 = plain ~name:"table1" ~title:(Tce_metrics.Table1.title ^ "\n") Tce_metrics.Table1.render

let table2 =
  plain ~name:"table2" ~title:"Table 2 — Simulated micro-architecture configuration\n"
    (fun () -> Fmt.str "%a@." Tce_machine.Config.pp Tce_machine.Config.default)

(* --- Ablations (EXPERIMENTS.md "Ablations") ---
   An ablation is a fixed list of (config, workload) pair cells and a
   table over their rows. *)

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
    name = "cc-sweep";
    title = "Ablation A — Class Cache geometry vs hit rate (128x2 is the paper's pick)\n";
    headers;
    reads = Cells (List.concat_map (fun w -> List.map (fun g -> (config g, w)) geometries) ws);
    rows =
      (fun cells ->
        List.map
          (fun ((w : Workload.t), cs) ->
            (w.Workload.name, List.map (fun (r, _) -> P (100.0 *. r.Record.cc_hit_rate_on)) cs))
          (per_item ws ~per:(List.length geometries) cells));
    pct = Printf.sprintf "%.3f%%";
    note = (fun _ -> "\n");
    csv = Some ("ablation_a.csv", headers);
  }

(** B: each profile-breaking store [fraction] of {!Synthetic.poly}, over
    the whole run: the ValidMap is one-way, so a profile breaks at most
    once and the cost is paid in the transient, where the steady-state
    window does not look. *)
let poly_sweep_of fractions =
  {
    name = "ablation";
    title =
      "Ablation B — speedup and exceptions vs fraction of profile-breaking stores\n\
       (whole-run measurement: breakage costs are transient by design)\n";
    headers =
      [ "poly fraction"; "cycles off"; "cycles on"; "speedup"; "cc-exceptions"; "deopts" ];
    reads = Cells (List.map (fun f -> (E.default_config, Synthetic.poly f)) fractions);
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
    note = (fun _ -> "\n");
    csv =
      Some
        ( "ablation_b.csv",
          [ "poly_fraction"; "whole_cycles_off"; "whole_cycles_on"; "speedup_pct";
            "cc_exceptions"; "deopts" ] );
  }

(** C: movClassIDArray hoisting (paper §4.2.1.3) off, then on, over
    {!Synthetic.elem_stores} of each size: steady-state optimized cycles
    and Class Cache ops. *)
let hoisting_of sizes =
  {
    name = "hoisting";
    title = "Ablation C — movClassIDArray loop hoisting on/off\n";
    headers =
      [ "workload"; "cycles unhoisted"; "cycles hoisted"; "gain"; "ccops unhoisted";
        "ccops hoisted" ];
    reads =
      Cells
        (List.concat_map
           (fun n ->
             let w = Synthetic.elem_stores n in
             [ ({ E.default_config with E.hoisting = false }, w); (E.default_config, w) ])
           sizes);
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
    note = (fun _ -> "\n");
    csv =
      Some
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
    name = "checked-load";
    title = "Ablation D — Checked Load (implicit checks) vs Class Cache (removed checks)\n";
    headers =
      [ "benchmark"; "cycles base"; "checked-load speedup"; "class-cache speedup";
        "checks base" ];
    reads =
      Cells
        (List.concat_map
           (fun w ->
             [ (E.default_config, w); ({ E.default_config with E.checked_load = true }, w) ])
           ws);
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
      (fun _ ->
        "(Checked Load fuses only property-load map checks; the Class Cache also\n\
         removes SMI/Non-SMI checks and untag guards — paper §2 vs §4.3)\n\n");
    csv =
      Some
        ( "ablation_d.csv",
          [ "benchmark"; "cycles_base"; "checked_load_speedup_pct"; "checked_load_checks";
            "class_cache_speedup_pct"; "class_cache_checks"; "checks_base" ] );
  }

(** Every experiment, in the order [fig] prints them. *)
let views =
  [
    fig1;
    fig2;
    fig3;
    table1;
    table2;
    fig8;
    fig9;
    fig10;
    fig11;
    overheads;
    census;
    (* A's synthetic workloads make ~3 hidden classes per constructor (the
       transition chain), so 8, 24 and 48 classes need about 24, 72 and
       144 Class Cache entries: the last exceeds the paper's 128x2 pick. *)
    cc_sweep_of
      ~geometries:[ (8, 2); (16, 2); (32, 2); (64, 2); (128, 1); (128, 2); (128, 4); (256, 2) ]
      (List.map Synthetic.classes [ 8; 24; 48 ] @ [ Option.get (Workloads.by_name "ai-astar") ]);
    poly_sweep_of [ 0.0; 0.0001; 0.001; 0.01; 0.1 ];
    hoisting_of [ 32; 128; 512 ];
    checked_load_of
      (List.filter_map Workloads.by_name [ "ai-astar"; "richards"; "deltablue"; "box2d"; "3d-cube" ]);
  ]

(** Write the rows of each of {!views} that carries a CSV under [dir]
    (plots, spreadsheets), reading them through [cache]. *)
let write_csvs ?(dir = "results") ~cache () =
  let views = List.filter (fun v -> v.csv <> None) views in
  let cells = reader ~cache views in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let f = Printf.sprintf "%.4f" in
  let chk p k = [ p; string_of_int k ] in
  List.iter
    (fun v ->
      let name, headers = Option.get v.csv in
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc
        (Table.csv ~headers (List.map (strings ~pct:f ~chk) (v.rows (cells v))));
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    views
