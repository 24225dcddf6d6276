(** Steady-state measurement harness (paper §5: "executing the benchmark ten
    times and taking statistics from the tenth iteration").

    Protocol: run the program's top level (setup), call [bench()]
    [iterations - 1] times as warm-up (tier-up and Class List profiling
    happen here), then reset all counters and measure a single call. *)

open Tce_workloads
module E = Tce_engine.Engine
module M = Tce_machine.Machine
module Counters = Tce_machine.Counters

type result = {
  workload : Workload.t;
  mechanism : bool;
  checksum : string;  (** display string of the measured bench() result *)
  (* whole-run measurement (setup + all iterations: includes the baseline
     tier, compilations and deopt transients — the paper's "whole
     application") *)
  whole_cycles : float;
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
  l1d_hit_rate : float;
  l2_hit_rate : float;
  dtlb_hit_rate : float;
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
  multi_line_objects : int;
  objects_allocated : int;
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

(** Whole-run measurement: counters on from the first instruction. *)
let run_whole ~config (w : Workload.t) =
  let t = E.of_source ~config w.Workload.source in
  E.set_measuring t true;
  ignore (E.run_main t);
  for _ = 1 to w.Workload.iterations do
    ignore (E.call_by_name t "bench" [||])
  done;
  let c = t.E.counters in
  let cycles = float_of_int (E.opt_cycles t) +. E.baseline_cycles t in
  (cycles, Counters.total_instrs c, c.Counters.guards_obj_load,
   Array.copy c.Counters.by_cat, c.Counters.baseline_instrs)

(** Run one workload under one engine configuration.

    One execution serves both measurements: counting never affects simulated
    state, so the counters run from the first instruction, the cumulative end
    state is the whole-run measurement, and the steady-state window is the
    end state minus a snapshot taken where the former protocol reset
    ({!Counters.since}). Every number is bit-identical to the historical
    two-execution protocol — the analytic [baseline_cycles] is recomputed
    from the diffed instruction count rather than float-subtracted, and the
    hit rates replicate the [accesses = 0 -> 1.0] convention on the diffed
    traffic — at half the host cost. *)
let run ?(config = E.default_config) (w : Workload.t) : result =
  let t = E.of_source ~config w.Workload.source in
  let tr = config.E.trace in
  let phase name =
    if Tce_obs.Trace.on tr then Tce_obs.Trace.emit tr (Tce_obs.Trace.Phase name)
  in
  E.set_measuring t true;
  phase "setup";
  ignore (E.run_main t);
  phase "warmup";
  for _ = 1 to w.Workload.iterations - 1 do
    ignore (E.call_by_name t "bench" [||])
  done;
  (* the steady-state window opens here *)
  let snap = Counters.copy t.E.counters in
  let m = t.E.mach in
  let l1d_a0 = m.M.l1d.Tce_machine.Cache.stats.accesses
  and l1d_h0 = m.M.l1d.Tce_machine.Cache.stats.hits
  and l1i_a0 = m.M.l1i.Tce_machine.Cache.stats.accesses
  and l2_a0 = m.M.l2.Tce_machine.Cache.stats.accesses
  and l2_h0 = m.M.l2.Tce_machine.Cache.stats.hits
  and l2_m0 = m.M.l2.Tce_machine.Cache.stats.misses
  and dtlb_a0 = m.M.dtlb.Tce_machine.Tlb.stats.accesses
  and dtlb_h0 = m.M.dtlb.Tce_machine.Tlb.stats.hits
  and cc_a0 = t.E.cc.Tce_core.Class_cache.stats.accesses
  and cc_h0 = t.E.cc.Tce_core.Class_cache.stats.hits in
  let cycles0 = E.opt_cycles t in
  phase "measure";
  let v = E.call_by_name t "bench" [||] in
  E.set_measuring t false;
  let checksum = Tce_vm.Heap.to_display_string t.E.heap v in
  let cw = t.E.counters in
  let whole_cycles = float_of_int (E.opt_cycles t) +. E.baseline_cycles t in
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
  and l1d_h = m.M.l1d.Tce_machine.Cache.stats.hits - l1d_h0
  and l1i_a = m.M.l1i.Tce_machine.Cache.stats.accesses - l1i_a0
  and l2_a = m.M.l2.Tce_machine.Cache.stats.accesses - l2_a0
  and l2_h = m.M.l2.Tce_machine.Cache.stats.hits - l2_h0
  and l2_m = m.M.l2.Tce_machine.Cache.stats.misses - l2_m0
  and dtlb_a = m.M.dtlb.Tce_machine.Tlb.stats.accesses - dtlb_a0
  and dtlb_h = m.M.dtlb.Tce_machine.Tlb.stats.hits - dtlb_h0
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
    whole_cycles;
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
    l1d_hit_rate = rate l1d_h l1d_a;
    l2_hit_rate = rate l2_h l2_a;
    dtlb_hit_rate = rate dtlb_h dtlb_a;
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
    multi_line_objects = hs.Tce_vm.Heap.multi_line_objects;
    objects_allocated = hs.Tce_vm.Heap.objects_allocated;
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

  (* Every field is required; an error names the first bad one. *)
  let of_json (j : J.t) : (t, string) Stdlib.result =
    let bad name = Error (Printf.sprintf "bad or missing figures field %S" name) in
    let field name conv =
      match Option.bind (J.member name j) conv with
      | Some v -> Ok v
      | None -> bad name
    in
    let int name = field name J.to_int and float name = field name J.to_float in
    let ints name =
      let* items = field name J.to_list in
      let xs = List.filter_map J.to_int items in
      if List.compare_lengths xs items = 0 then Ok xs else bad name
    in
    let* whole_instrs_off = int "whole_instrs_off" in
    let* by_cat = ints "whole_by_cat_off" in
    let* whole_by_cat_off =
      if List.length by_cat = Tce_jit.Categories.count then Ok (Array.of_list by_cat)
      else bad "whole_by_cat_off"
    in
    let* whole_guards_off = int "whole_guards_off" in
    let* opt_instrs_off = int "opt_instrs_off" in
    let* opt_cycles_off = int "opt_cycles_off" in
    let* fig3_off =
      let* xs = ints "fig3_off" in
      match xs with [ mp; me; pp; pe ] -> Ok (mp, me, pp, pe) | _ -> bad "fig3_off"
    in
    let* energy_nj_off = float "energy_nj_off" in
    let* energy_dynamic_nj_off = float "energy_dynamic_nj_off" in
    let* hidden_classes_off = int "hidden_classes_off" in
    let* whole_instrs_on = int "whole_instrs_on" in
    let* opt_instrs_on = int "opt_instrs_on" in
    let* opt_cycles_on = int "opt_cycles_on" in
    let* energy_nj_on = float "energy_nj_on" in
    let* energy_dynamic_nj_on = float "energy_dynamic_nj_on" in
    let* hidden_classes_on = int "hidden_classes_on" in
    let* heap_object_bytes_on = int "heap_object_bytes_on" in
    let* heap_header_extra_bytes_on = int "heap_header_extra_bytes_on" in
    let* obj_loads_total_on = int "obj_loads_total_on" in
    let* obj_loads_first_line_on = int "obj_loads_first_line_on" in
    let* whole_deopts_on = int "whole_deopts_on" in
    let* whole_cc_exceptions_on = int "whole_cc_exceptions_on" in
    let* ccops_on = int "ccops_on" in
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

(** One profiled whole run (measuring from the first instruction, like
    {!run_whole} — profiled runs never reset counters, so the baseline-side
    reconciliation in [summarize] holds). Returns (checksum of the last
    bench() value, summary, collapsed-stack lines rooted at
    ["name;on|off"]). *)
let run_profiled_one ?(config = E.default_config) ~mechanism (w : Workload.t)
    : string * Tce_prof.Profile.summary * string =
  let prof = Tce_prof.Profile.create () in
  let config = { config with E.mechanism; prof } in
  let t = E.of_source ~config w.Workload.source in
  E.set_measuring t true;
  ignore (E.run_main t);
  let v = ref t.E.heap.Tce_vm.Heap.null_v in
  for _ = 1 to w.Workload.iterations do
    v := E.call_by_name t "bench" [||]
  done;
  let checksum = Tce_vm.Heap.to_display_string t.E.heap !v in
  let cpi = config.E.mach_cfg.Tce_machine.Config.baseline_cpi in
  let summary =
    Tce_prof.Profile.summarize prof ~program:w.Workload.name ~mechanism
      ~machine_cycles:(E.opt_cycles t)
      ~baseline_instrs:t.E.counters.Counters.baseline_instrs ~baseline_cpi:cpi
      ()
  in
  let root = w.Workload.name ^ ";" ^ (if mechanism then "on" else "off") in
  (checksum, summary, Tce_prof.Profile.folded ~root ~baseline_cpi:cpi prof)

(** Profile both sides of [w], checking the sides agree on the checksum.
    [verify] additionally reruns each side *unprofiled* and asserts the
    totals are bit-identical — profiling must never change a simulated
    number. *)
let run_pair_profiled ?(verify = false) ?(config = E.default_config)
    (w : Workload.t) : profiled =
  let ck_off, p_off, p_folded_off =
    run_profiled_one ~config ~mechanism:false w
  in
  let ck_on, p_on, p_folded_on = run_profiled_one ~config ~mechanism:true w in
  check_agree w ~off:ck_off ~on:ck_on;
  if verify then
    List.iter
      (fun (mech, (s : Tce_prof.Profile.summary)) ->
        let wc, _, _, _, bi =
          run_whole ~config:{ config with E.mechanism = mech } w
        in
        if bi <> s.Tce_prof.Profile.baseline_instrs
           || wc <> s.Tce_prof.Profile.total_cycles
        then
          failwith
            (Printf.sprintf
               "%s (mechanism %b): profiling changed simulated results \
                (unprofiled %.0f cycles / %d baseline instrs, profiled %.0f \
                / %d)"
               w.Workload.name mech wc bi s.Tce_prof.Profile.total_cycles
               s.Tce_prof.Profile.baseline_instrs))
      [ (false, p_off); (true, p_on) ];
  { p_name = w.Workload.name; p_off; p_on; p_folded_off; p_folded_on }

(** Pure-interpreter checksum (ground truth for differential tests). *)
let interp_checksum ?(config = E.default_config) (w : Workload.t) : string =
  let t = E.of_source ~config:{ config with E.jit = false } w.Workload.source in
  E.set_measuring t false;
  ignore (E.run_main t);
  let v = ref t.E.heap.Tce_vm.Heap.null_v in
  for _ = 1 to w.Workload.iterations do
    v := E.call_by_name t "bench" [||]
  done;
  Tce_vm.Heap.to_display_string t.E.heap !v

(** Checksum of the measured (last) iteration in full-JIT mode. *)
let jit_checksum ?(config = E.default_config) ~mechanism (w : Workload.t) : string =
  (run ~config:{ config with E.mechanism } w).checksum
