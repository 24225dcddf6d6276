(** Execution harness: the one place a workload's program is executed.
    There are two protocols, one loop each.

    - {!run}, the measured run (paper §5: "executing the benchmark ten
      times and taking statistics from the tenth iteration"): run the
      program's top level (setup), call [bench()] [iterations - 1] times
      as warm-up (tier-up and Class List profiling happen here), then
      measure a single call. Counters run from the first instruction, so
      the same execution also gives the whole-run totals. The roster rows,
      the ablations and the sweep ({!run_pair}), the profiler
      ({!run_pair_profiled}) and the fault campaign's runs
      ({!Tce_runner.Campaign.observe}: its clean run, armed to count fault
      opportunities, and a faulted run per cell whose rule can fire) all
      use it.
    - {!warm}, the unmeasured run: the top level, then [bench()] a given
      number of times with counters off. The pure-interpreter reference
      ({!reference}: the fault oracle's ground truth and the differential
      tests'), Table 1's live Class List dump and the CLI's [opt-dump] and
      [classlist] use it. *)

open Tce_workloads
module E = Tce_engine.Engine
module M = Tce_machine.Machine
module Counters = Tce_machine.Counters

type result = {
  workload : Workload.t;
  mechanism : bool;
  checksum : string;  (** display string of the measured bench() result *)
  observable : string;
      (** everything the guest program showed: printed output and every
          bench() result, warm-up included ({!observable}) *)
  (* whole-run measurement (setup + all iterations: includes the baseline
     tier, compilations and deopt transients — the paper's "whole
     application") *)
  whole_cycles : float;
  whole_opt_cycles : int;
  whole_baseline_instrs : int;
  whole_instrs : int;
  whole_guards : int;
  whole_by_cat : int array;
  whole_deopts : int;
  whole_cc_exceptions : int;
  by_cat : int array;  (** optimized-tier instructions per category *)
  by_check_kind : int array;
      (** [C_check] executions per {!Tce_jit.Categories.check_kind} (slot 0 =
          unattributed); sums to [by_cat.(C_check)] — asserted in
          {!Tce_runner.Record.of_pair} *)
  opt_instrs : int;
  baseline_instrs : int;
  guards_obj_load : int;
  opt_cycles : int;
  baseline_cycles : float;
  total_cycles : float;
  opt_loads : int;
  opt_stores : int;
  opt_branches : int;
  opt_fp : int;
  deopts : int;
  cc_exceptions : int;
  cc_accesses : int;
  cc_hit_rate : float;
  energy_nj : float;
  energy_dynamic_nj : float;
  energy_leakage_nj : float;
  fig3 : int * int * int * int;
      (** dynamic object-load accesses: (mono prop, mono elem, poly prop,
          poly elem) against the full-run oracle *)
  obj_loads_total : int;
  obj_loads_first_line : int;
  hidden_classes : int;
  heap_object_bytes : int;
  heap_header_extra_bytes : int;
}

(** Energy over a measurement window: counters [c] plus the cache / Class
    Cache traffic of the same window (passed explicitly so callers can
    hand in snapshot-diffed values). *)
let energy_of ~(c : Counters.t) ~l1_accesses ~l2_accesses ~mem_accesses
    ~cc_accesses ~total_cycles =
  let opt = Counters.opt_instrs c in
  let base = c.Counters.baseline_instrs in
  let fbase = float_of_int base in
  let alu =
    max 0
      (opt - c.Counters.opt_loads - c.Counters.opt_stores
     - c.Counters.opt_branches - c.Counters.opt_fp)
  in
  let ev =
    {
      Tce_machine.Energy.instrs = opt + base;
      alu_ops = alu + int_of_float (fbase *. 0.5);
      fp_ops = c.Counters.opt_fp;
      branches = c.Counters.opt_branches + int_of_float (fbase *. 0.15);
      l1_accesses = l1_accesses + int_of_float (fbase *. 0.35);
      l2_accesses;
      mem_accesses;
      cc_accesses;
      cycles = total_cycles;
    }
  in
  Tce_machine.Energy.compute ev

(** The guest-observable summary of a run that printed through [t] and
    whose bench() calls returned [values] (display strings, in call
    order): the printed output, then a digest of every value. Two runs
    that compute the same thing give the same string. *)
let observable t values =
  let buf = Buffer.create 128 in
  List.iter
    (fun v ->
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    values;
  E.output t ^ "\x00" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* Call the program's bench() once, pushing the display string of its
   result onto [values]. *)
let call_bench t values =
  let v = E.call_by_name t "bench" [||] in
  values := Tce_vm.Heap.to_display_string t.E.heap v :: !values

(** Run one workload under one engine configuration.

    One execution serves both measurements: counting never affects simulated
    state, so the counters run from the first instruction, the cumulative end
    state is the whole-run measurement, and the steady-state window is the
    end state minus a snapshot taken where the former protocol reset
    ({!Counters.since}). Every number is bit-identical to the historical
    two-execution protocol — the analytic [baseline_cycles] is recomputed
    from the diffed instruction count rather than float-subtracted, and the
    Class Cache hit rate replicates the [accesses = 0 -> 1.0] convention on
    the diffed traffic — at half the host cost. *)
let run ?(config = E.default_config) (w : Workload.t) : result =
  let t = E.of_source ~config w.Workload.source in
  let tr = config.E.trace in
  let phase name =
    if Tce_obs.Trace.on tr then Tce_obs.Trace.emit tr (Tce_obs.Trace.Phase name)
  in
  (* display strings of the bench() results so far, newest first *)
  let values = ref [] in
  E.set_measuring t true;
  phase "setup";
  ignore (E.run_main t);
  phase "warmup";
  for _ = 1 to w.Workload.iterations - 1 do
    call_bench t values
  done;
  (* the steady-state window opens here *)
  let snap = Counters.copy t.E.counters in
  let m = t.E.mach in
  let l1d_a0 = m.M.l1d.Tce_machine.Cache.stats.accesses
  and l1i_a0 = m.M.l1i.Tce_machine.Cache.stats.accesses
  and l2_a0 = m.M.l2.Tce_machine.Cache.stats.accesses
  and l2_m0 = m.M.l2.Tce_machine.Cache.stats.misses
  and cc_a0 = t.E.cc.Tce_core.Class_cache.stats.accesses
  and cc_h0 = t.E.cc.Tce_core.Class_cache.stats.hits in
  let cycles0 = E.opt_cycles t in
  phase "measure";
  call_bench t values;
  E.set_measuring t false;
  let checksum = List.hd !values in
  let cw = t.E.counters in
  let whole_opt_cycles = E.opt_cycles t in
  let whole_cycles = float_of_int whole_opt_cycles +. E.baseline_cycles t in
  let whole_instrs = Counters.total_instrs cw in
  let whole_guards = cw.Counters.guards_obj_load in
  let whole_by_cat = Array.copy cw.Counters.by_cat in
  let whole_deopts = cw.Counters.deopts in
  let whole_cc_exceptions = cw.Counters.cc_exception_deopts in
  let c = Counters.since cw snap in
  let opt_cycles = E.opt_cycles t - cycles0 in
  let baseline_cycles =
    float_of_int c.Counters.baseline_instrs
    *. config.E.mach_cfg.Tce_machine.Config.baseline_cpi
  in
  let total_cycles = float_of_int opt_cycles +. baseline_cycles in
  let rate hits accesses =
    if accesses = 0 then 1.0 else float_of_int hits /. float_of_int accesses
  in
  let l1d_a = m.M.l1d.Tce_machine.Cache.stats.accesses - l1d_a0
  and l1i_a = m.M.l1i.Tce_machine.Cache.stats.accesses - l1i_a0
  and l2_a = m.M.l2.Tce_machine.Cache.stats.accesses - l2_a0
  and l2_m = m.M.l2.Tce_machine.Cache.stats.misses - l2_m0
  and cc_a = t.E.cc.Tce_core.Class_cache.stats.accesses - cc_a0
  and cc_h = t.E.cc.Tce_core.Class_cache.stats.hits - cc_h0 in
  let energy =
    energy_of ~c ~l1_accesses:(l1d_a + l1i_a) ~l2_accesses:l2_a
      ~mem_accesses:l2_m ~cc_accesses:cc_a ~total_cycles
  in
  let mono_p, mono_e, poly_p, poly_e = Counters.classify_obj_loads c t.E.oracle in
  let hs = t.E.heap.Tce_vm.Heap.stats in
  {
    workload = w;
    mechanism = config.E.mechanism;
    checksum;
    observable = observable t (List.rev !values);
    whole_cycles;
    whole_opt_cycles;
    whole_baseline_instrs = cw.Counters.baseline_instrs;
    whole_instrs;
    whole_guards;
    whole_by_cat;
    whole_deopts;
    whole_cc_exceptions;
    by_cat = Array.copy c.Counters.by_cat;
    by_check_kind = Array.copy c.Counters.by_check_kind;
    opt_instrs = Counters.opt_instrs c;
    baseline_instrs = c.Counters.baseline_instrs;
    guards_obj_load = c.Counters.guards_obj_load;
    opt_cycles;
    baseline_cycles;
    total_cycles;
    opt_loads = c.Counters.opt_loads;
    opt_stores = c.Counters.opt_stores;
    opt_branches = c.Counters.opt_branches;
    opt_fp = c.Counters.opt_fp;
    deopts = c.Counters.deopts;
    cc_exceptions = c.Counters.cc_exception_deopts;
    cc_accesses = cc_a;
    cc_hit_rate = rate cc_h cc_a;
    energy_nj = energy.Tce_machine.Energy.total_nj;
    energy_dynamic_nj = energy.Tce_machine.Energy.dynamic_nj;
    energy_leakage_nj = energy.Tce_machine.Energy.leakage_nj;
    fig3 = (mono_p, mono_e, poly_p, poly_e);
    obj_loads_total = c.Counters.obj_loads_total;
    obj_loads_first_line = c.Counters.obj_loads_first_line;
    hidden_classes =
      Tce_vm.Hidden_class.Registry.class_count t.E.heap.Tce_vm.Heap.reg;
    heap_object_bytes = hs.Tce_vm.Heap.object_bytes;
    heap_header_extra_bytes = hs.Tce_vm.Heap.header_extra_bytes;
  }

(** Fail unless the mechanism-off and mechanism-on checksums of [w] agree
    (differential correctness is part of every experiment). *)
let check_agree (w : Workload.t) ~off ~on =
  if off <> on then
    failwith
      (Printf.sprintf "%s: checksum mismatch (off=%s on=%s)" w.Workload.name
         off on)

(** Run mechanism-off and mechanism-on under [config], check that the
    checksums agree, and return both results. *)
let run_pair ?(config = E.default_config) (w : Workload.t) : result * result =
  let off = run ~config:{ config with E.mechanism = false } w in
  let on = run ~config:{ config with E.mechanism = true } w in
  check_agree w ~off:off.checksum ~on:on.checksum;
  (off, on)

(** What the paper's figures (1–3, 8, 9, the §5.3 overheads, the census)
    and Ablations B and C read of one mechanism-off / mechanism-on pair
    besides the runner row's whole-run cycles, object-load guards, check
    counts and Class Cache counts. Plain data, so structural equality
    compares two blocks. *)
module Figures = struct
  type t = {
    whole_instrs_off : int;
    whole_by_cat_off : int array;  (** one count per {!Tce_jit.Categories} *)
    whole_guards_off : int;
    opt_instrs_off : int;
    opt_cycles_off : int;
    fig3_off : int * int * int * int;
        (** (mono prop, mono elem, poly prop, poly elem) object loads *)
    energy_nj_off : float;
    energy_dynamic_nj_off : float;
    hidden_classes_off : int;
    whole_instrs_on : int;
    opt_instrs_on : int;
    opt_cycles_on : int;
    energy_nj_on : float;
    energy_dynamic_nj_on : float;
    hidden_classes_on : int;
    heap_object_bytes_on : int;
    heap_header_extra_bytes_on : int;
    obj_loads_total_on : int;
    obj_loads_first_line_on : int;
    whole_deopts_on : int;
    whole_cc_exceptions_on : int;
    ccops_on : int;  (** steady-state [C_ccop] instructions *)
  }

  let of_pair (off : result) (on : result) : t =
    {
      whole_instrs_off = off.whole_instrs;
      whole_by_cat_off = off.whole_by_cat;
      whole_guards_off = off.whole_guards;
      opt_instrs_off = off.opt_instrs;
      opt_cycles_off = off.opt_cycles;
      fig3_off = off.fig3;
      energy_nj_off = off.energy_nj;
      energy_dynamic_nj_off = off.energy_dynamic_nj;
      hidden_classes_off = off.hidden_classes;
      whole_instrs_on = on.whole_instrs;
      opt_instrs_on = on.opt_instrs;
      opt_cycles_on = on.opt_cycles;
      energy_nj_on = on.energy_nj;
      energy_dynamic_nj_on = on.energy_dynamic_nj;
      hidden_classes_on = on.hidden_classes;
      heap_object_bytes_on = on.heap_object_bytes;
      heap_header_extra_bytes_on = on.heap_header_extra_bytes;
      obj_loads_total_on = on.obj_loads_total;
      obj_loads_first_line_on = on.obj_loads_first_line;
      whole_deopts_on = on.whole_deopts;
      whole_cc_exceptions_on = on.whole_cc_exceptions;
      ccops_on = on.by_cat.(Tce_jit.Categories.index Tce_jit.Categories.C_ccop);
    }

  module J = Tce_obs.Json

  let ints xs = J.List (List.map (fun i -> J.Int i) xs)

  let to_json (f : t) : J.t =
    let mp, me, pp, pe = f.fig3_off in
    J.Obj
      [
        ("whole_instrs_off", J.Int f.whole_instrs_off);
        ("whole_by_cat_off", ints (Array.to_list f.whole_by_cat_off));
        ("whole_guards_off", J.Int f.whole_guards_off);
        ("opt_instrs_off", J.Int f.opt_instrs_off);
        ("opt_cycles_off", J.Int f.opt_cycles_off);
        ("fig3_off", ints [ mp; me; pp; pe ]);
        ("energy_nj_off", J.Float f.energy_nj_off);
        ("energy_dynamic_nj_off", J.Float f.energy_dynamic_nj_off);
        ("hidden_classes_off", J.Int f.hidden_classes_off);
        ("whole_instrs_on", J.Int f.whole_instrs_on);
        ("opt_instrs_on", J.Int f.opt_instrs_on);
        ("opt_cycles_on", J.Int f.opt_cycles_on);
        ("energy_nj_on", J.Float f.energy_nj_on);
        ("energy_dynamic_nj_on", J.Float f.energy_dynamic_nj_on);
        ("hidden_classes_on", J.Int f.hidden_classes_on);
        ("heap_object_bytes_on", J.Int f.heap_object_bytes_on);
        ("heap_header_extra_bytes_on", J.Int f.heap_header_extra_bytes_on);
        ("obj_loads_total_on", J.Int f.obj_loads_total_on);
        ("obj_loads_first_line_on", J.Int f.obj_loads_first_line_on);
        ("whole_deopts_on", J.Int f.whole_deopts_on);
        ("whole_cc_exceptions_on", J.Int f.whole_cc_exceptions_on);
        ("ccops_on", J.Int f.ccops_on);
      ]

  let ( let* ) = Result.bind

  let by_cat v =
    Option.bind (J.list_of J.to_int v) (fun xs ->
        if List.length xs = Tce_jit.Categories.count then Some (Array.of_list xs)
        else None)

  let fig3 v =
    match J.list_of J.to_int v with
    | Some [ mp; me; pp; pe ] -> Some (mp, me, pp, pe)
    | _ -> None

  (* Every field is required; an error names the first bad one. *)
  let of_json (j : J.t) : (t, string) Stdlib.result =
    let* whole_instrs_off = J.field "whole_instrs_off" J.to_int j in
    let* whole_by_cat_off = J.field "whole_by_cat_off" by_cat j in
    let* whole_guards_off = J.field "whole_guards_off" J.to_int j in
    let* opt_instrs_off = J.field "opt_instrs_off" J.to_int j in
    let* opt_cycles_off = J.field "opt_cycles_off" J.to_int j in
    let* fig3_off = J.field "fig3_off" fig3 j in
    let* energy_nj_off = J.field "energy_nj_off" J.to_float j in
    let* energy_dynamic_nj_off = J.field "energy_dynamic_nj_off" J.to_float j in
    let* hidden_classes_off = J.field "hidden_classes_off" J.to_int j in
    let* whole_instrs_on = J.field "whole_instrs_on" J.to_int j in
    let* opt_instrs_on = J.field "opt_instrs_on" J.to_int j in
    let* opt_cycles_on = J.field "opt_cycles_on" J.to_int j in
    let* energy_nj_on = J.field "energy_nj_on" J.to_float j in
    let* energy_dynamic_nj_on = J.field "energy_dynamic_nj_on" J.to_float j in
    let* hidden_classes_on = J.field "hidden_classes_on" J.to_int j in
    let* heap_object_bytes_on = J.field "heap_object_bytes_on" J.to_int j in
    let* heap_header_extra_bytes_on =
      J.field "heap_header_extra_bytes_on" J.to_int j
    in
    let* obj_loads_total_on = J.field "obj_loads_total_on" J.to_int j in
    let* obj_loads_first_line_on = J.field "obj_loads_first_line_on" J.to_int j in
    let* whole_deopts_on = J.field "whole_deopts_on" J.to_int j in
    let* whole_cc_exceptions_on = J.field "whole_cc_exceptions_on" J.to_int j in
    let* ccops_on = J.field "ccops_on" J.to_int j in
    Ok
      {
        whole_instrs_off;
        whole_by_cat_off;
        whole_guards_off;
        opt_instrs_off;
        opt_cycles_off;
        fig3_off;
        energy_nj_off;
        energy_dynamic_nj_off;
        hidden_classes_off;
        whole_instrs_on;
        opt_instrs_on;
        opt_cycles_on;
        energy_nj_on;
        energy_dynamic_nj_on;
        hidden_classes_on;
        heap_object_bytes_on;
        heap_header_extra_bytes_on;
        obj_loads_total_on;
        obj_loads_first_line_on;
        whole_deopts_on;
        whole_cc_exceptions_on;
        ccops_on;
      }
end

(* --- cycle-attribution profiling --- *)

(** A profiled whole-run pair: both sides of one workload under a fresh
    {!Tce_prof.Profile} each, with their collapsed-stack exports. *)
type profiled = {
  p_name : string;
  p_off : Tce_prof.Profile.summary;
  p_on : Tce_prof.Profile.summary;
  p_folded_off : string;
  p_folded_on : string;
}

(** Profile both sides of [w], each a {!run} under a fresh
    {!Tce_prof.Profile}: counters run from the first instruction there, so
    the whole-run totals reconcile with the profile's cells. The sides
    must agree on the checksum. [verify] additionally reruns each side
    {e unprofiled} and asserts the totals are bit-identical — profiling
    must never change a simulated number. *)
let run_pair_profiled ?(verify = false) ?(config = E.default_config)
    (w : Workload.t) : profiled =
  let cpi = config.E.mach_cfg.Tce_machine.Config.baseline_cpi in
  let side mechanism =
    let prof = Tce_prof.Profile.create () in
    let r = run ~config:{ config with E.mechanism; prof } w in
    let summary =
      Tce_prof.Profile.summarize prof ~program:w.Workload.name ~mechanism
        ~machine_cycles:r.whole_opt_cycles
        ~baseline_instrs:r.whole_baseline_instrs ~baseline_cpi:cpi ()
    in
    let root = w.Workload.name ^ ";" ^ (if mechanism then "on" else "off") in
    (r, summary, Tce_prof.Profile.folded ~root ~baseline_cpi:cpi prof)
  in
  let off, p_off, p_folded_off = side false in
  let on, p_on, p_folded_on = side true in
  check_agree w ~off:off.checksum ~on:on.checksum;
  if verify then
    List.iter
      (fun (p : result) ->
        let u = run ~config:{ config with E.mechanism = p.mechanism } w in
        if u.whole_baseline_instrs <> p.whole_baseline_instrs
           || u.whole_opt_cycles <> p.whole_opt_cycles
        then
          failwith
            (Printf.sprintf
               "%s (mechanism %b): profiling changed simulated results \
                (unprofiled %d machine cycles / %d baseline instrs, \
                profiled %d / %d)"
               w.Workload.name p.mechanism u.whole_opt_cycles
               u.whole_baseline_instrs p.whole_opt_cycles
               p.whole_baseline_instrs))
      [ off; on ];
  { p_name = w.Workload.name; p_off; p_on; p_folded_off; p_folded_on }

(** Run [source]'s top level, then [bench()] [iterations] times, with
    counters off: the one unmeasured execution. Returns the engine, warm
    (hot functions optimized, profiles populated), and the display string
    of each bench() result in call order; [[]] when the program defines
    no [bench]. *)
let warm ?(config = E.default_config) ~iterations source =
  let t = E.of_source ~config source in
  E.set_measuring t false;
  ignore (E.run_main t);
  let values = ref [] in
  if Tce_jit.Bytecode.find_func t.E.prog "bench" <> None then
    for _ = 1 to iterations do
      call_bench t values
    done;
  (t, List.rev !values)

(** The interpreter reference of [w]: the {!observable} of a {!warm} run
    with the JIT and the mechanism off, over [w.iterations] bench() calls.
    No optimizing-tier code runs, so this is the ground truth every
    compiled run must reproduce (the differential tests and the fault
    oracle compare against it). *)
let reference (w : Workload.t) : string =
  let t, values =
    warm
      ~config:{ E.default_config with E.jit = false; mechanism = false }
      ~iterations:w.Workload.iterations w.Workload.source
  in
  observable t values
