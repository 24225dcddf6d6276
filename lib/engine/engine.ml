(** The two-tier engine (our V8 stand-in):

    - Baseline tier: a bytecode interpreter with real inline caches, standing
      in for Full Codegen. Each op is charged the instruction cost of the
      generic code it represents ({!Tce_machine.Costs}). Every property /
      elements store fires a Class Cache request (profiling phase, paper
      §4.2.2).
    - Optimized tier: hot functions are compiled by {!Tce_jit.Opt} and run
      on the cycle-level machine ({!Tce_machine.Machine}).

    Deoptimization (failed checks, misspeculation exceptions, on-stack
    replacement) transfers execution back here mid-function. *)

open Tce_vm
open Tce_jit
module CL = Tce_core.Class_list
module CC = Tce_core.Class_cache

exception Engine_error of string

(* Tier-up: a function is optimized once it has been called
   [hot_call_count] times or has taken [hot_backedge_count] loop
   backedges. *)
let hot_call_count = 6
let hot_backedge_count = 200

(* Deopt-storm mitigation. The former cliff — [max_deopts = 12] permanent
   disable plus a magic [deopt_hits > 4] — is replaced by a per-function
   exponential re-speculation backoff: the deopt budget decays over
   simulated cycles, and a function that exhausts it is refused tier-up for
   a cooldown that doubles per excess deopt (capped), instead of being
   pinned to the interpreter forever. *)

(* deopts of one optimized-code instance before it is discarded and
   recompiled against fresher feedback (V8-style; the previously
   hard-coded [deopt_hits > 4]) *)
let instance_deopt_limit = 4

(* decayed per-function deopt budget beyond which re-speculation enters
   backoff (the previous [max_deopts] permanent disable; functions below
   this threshold behave exactly as before) *)
let storm_threshold = 12

(* the first cooldown in simulated cycles, and its cap
   [base_cooldown_cycles * 2^max_backoff_exponent] *)
let base_cooldown_cycles = 20_000
let max_backoff_exponent = 8

(* one past deopt (and one backoff level) is forgiven per this many quiet
   simulated cycles, so re-speculation recovers after churn stops *)
let decay_cycles = 50_000

type config = {
  jit : bool;  (** false: pure interpreter (differential testing) *)
  mechanism : bool;  (** the paper's Class Cache mechanism on/off *)
  hoisting : bool;  (** hoist movClassIDArray out of loops (paper default) *)
  checked_load : bool;  (** Checked Load baseline instead of the mechanism *)
  mach_cfg : Tce_machine.Config.t;
  cc_config : CC.config;
  cl_config : CL.config;
      (** Class List geometry (tracked positions per line); part of the
          benchmark config hash like [cc_config] *)
  trace : Tce_obs.Trace.t;
      (** observability sink; {!Tce_obs.Trace.null} = tracing off (the
          zero-cost default: no events, no allocation, identical cycles) *)
  obs_sample_cycles : int;
      (** counter-snapshot period in simulated cycles; 0 = off *)
  fault : Tce_fault.Injector.t;
      (** fault injector; {!Tce_fault.Injector.null} = disarmed (the
          zero-cost default: no hooks run, identical cycles) *)
  attr : Tce_attr.Ledger.t;
      (** attribution ledger; {!Tce_attr.Ledger.null} = disabled (the
          zero-cost default: no recording, identical cycles) *)
  prof : Tce_prof.Profile.t;
      (** cycle-attribution profiler; {!Tce_prof.Profile.null} = disabled
          (the zero-cost default: no attribution, identical cycles) *)
}

let default_config =
  {
    jit = true;
    mechanism = true;
    hoisting = true;
    checked_load = false;
    mach_cfg = Tce_machine.Config.default;
    cc_config = CC.default_config;
    cl_config = CL.default_config;
    trace = Tce_obs.Trace.null;
    obs_sample_cycles = 0;
    fault = Tce_fault.Injector.null;
    attr = Tce_attr.Ledger.null;
    prof = Tce_prof.Profile.null;
  }

(** Does any function of [p] hold a property or elements store, or a
    [push] (which stores through the element store)? A static test: a
    store that never runs still counts, since it still shapes the
    optimized code. *)
let stores (p : Bytecode.program) =
  Array.exists
    (fun (f : Bytecode.func) ->
      Array.exists
        (function
          | Bytecode.SetProp _ | SetElem _ | CallB (_, Builtins.B_push, _) -> true
          | _ -> false)
        f.Bytecode.code)
    p.Bytecode.funcs

(* The fields below are read only where a run of the other mechanism
   setting cannot reach them: Class List and Class Cache state only under
   [cfg.mechanism] ({!fire_store_event}, the machine's store path and
   [Opt.compute_hoists]; [CL.create] allocates [65536 * entry_bytes]
   whatever the geometry), Checked Load only under [not mechanism]
   ([Opt.gen_op]'s [GetProp] lowering).

   Without a store ({!stores}), [mechanism] itself is unreachable. Its
   reads are:
   - {!baseline_cost_of}: the store surcharge of [SetProp]/[SetElem];
   - {!fire_store_event}: reached only from {!set_prop} and {!set_elem},
     that is from [SetProp], [SetElem], [push] and the runtime stubs
     ([Rt_generic_set_prop], [Rt_generic_set_elem], [Rt_elem_store_slow])
     that [Opt] emits only when lowering [SetProp]/[SetElem];
   - the elements-kind retire in {!set_elem};
   - [Machine]'s store path ([cc_request_tagged]), run only by
     [StoreClassCache], [StoreClassCacheArray] and [ProfileStore], which
     [Opt] emits only when lowering [SetProp]/[SetElem];
   - [Opt]: [spec_load_ty] reads [CL.profiled_class], which is [None]
     for every slot while no store has initialized one, so no load is
     speculated and no dependency registered; [compute_hoists] hoists
     only [SetElem] receivers; [emit_prop_store] and the [SetElem]
     lowering are store lowerings; the Checked Load [GetProp] lowering
     runs under [not mechanism], hence [checked_load] is reset too;
     [slot_keep_cause] and [check_map] only pick the ledger's keep-cause
     label.
   So a store-free mechanism-on run leaves the Class List in its initial
   state and simulates as the mechanism-off run without Checked Load; only
   the attribution ledger's keep-cause labels differ. *)
let effective_config ~stores c =
  let c =
    if c.mechanism && not stores then
      { c with mechanism = false; checked_load = default_config.checked_load }
    else c
  in
  if c.mechanism then { c with checked_load = default_config.checked_load }
  else
    {
      c with
      hoisting = default_config.hoisting;
      cc_config = default_config.cc_config;
      cl_config = default_config.cl_config;
    }

(* The digested text must not change: the default config's digest is
   the [config_hash] of the committed baseline, which [check] compares
   against. *)
let config_hash c =
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (k ^ "=" ^ v ^ ";"))
    (Tce_machine.Config.rows c.mach_cfg);
  Buffer.add_string buf
    (Printf.sprintf "jit=%b;mechanism=%b;hoisting=%b;checked_load=%b;" c.jit
       c.mechanism c.hoisting c.checked_load);
  Buffer.add_string buf
    (Printf.sprintf "hot_call=%d;hot_backedge=%d;seed=%d;" hot_call_count
       hot_backedge_count Runtime.seed);
  Buffer.add_string buf
    (Printf.sprintf "inst_limit=%d;storm=%d;cooldown=%d;maxexp=%d;decay=%d;"
       instance_deopt_limit storm_threshold base_cooldown_cycles
       max_backoff_exponent decay_cycles);
  Buffer.add_string buf
    (Printf.sprintf "cc_entries=%d;cc_ways=%d;cl_size=%d"
       c.cc_config.CC.entries c.cc_config.CC.ways
       c.cl_config.CL.tracked_positions);
  Digest.to_hex (Digest.string (Buffer.contents buf))

type t = {
  cfg : config;
  heap : Heap.t;
  prog : Bytecode.program;
  cl : CL.t;
  cc : CC.t;
  oracle : Tce_core.Oracle.t;
  counters : Tce_machine.Counters.t;
  mach : Tce_machine.Machine.t;
  io : Runtime.io;
  opt_table : (int, Lir.func) Hashtbl.t;
  shadow_table : (int, Bytecode.func) Hashtbl.t;
      (** opt_id -> the (possibly inlined) bytecode the code was compiled
          from; deopts resume the interpreter on this bytecode *)
  mutable next_opt_id : int;
  mutable next_code_addr : int;  (** simulated code-space bump pointer *)
  mutable host : Tce_machine.Machine.host option;
  mutable depth : int;  (** guest call depth (recursion guard) *)
  globals_base : int;  (** simulated address of the global variable cells *)
  snap : Tce_obs.Snapshot.t;  (** periodic counter sampler *)
  obs_clock : unit -> int;
      (** deterministic trace clock: machine cycles + analytic baseline
          cycles (also installed as the trace's clock) *)
  mutable regs_pool : Tce_vm.Value.t array list;
      (** free list of interpreter register files (one [Array.make] per
          guest call otherwise) *)
  binop_cell : Tce_jit.Feedback.binop_fb ref;
      (** reusable out-cell for {!Runtime.eval_binop_cell}; consumed
          immediately after each call, so sharing one per engine is safe *)
}

let max_depth = 2000

(* --- construction --- *)

let create ?(config = default_config) (prog : Bytecode.program) : t =
  let heap = Heap.create () in
  let cl = CL.create ~config:config.cl_config heap.Heap.mem in
  (* the runtime exposes the transition tree to the Class List so new
     classes inherit profiles and invalidations propagate to descendants *)
  let reg = heap.Heap.reg in
  cl.CL.parent_of <-
    (fun id ->
      match Hidden_class.Registry.find reg id with
      | Some c -> c.Hidden_class.parent_id
      | None -> None);
  cl.CL.children_of <-
    (fun id ->
      match Hidden_class.Registry.find reg id with
      | Some c -> List.map (fun (_, c') -> c'.Hidden_class.id) c.Hidden_class.transitions
      | None -> []);
  let cc = CC.create ~config:config.cc_config () in
  let oracle = Tce_core.Oracle.create () in
  let counters = Tce_machine.Counters.create () in
  let mach =
    Tce_machine.Machine.create ~cfg:config.mach_cfg ~mechanism:config.mechanism
      ~trace:config.trace ~fault:config.fault ~attr:config.attr
      ~prof:config.prof ~heap ~cc ~cl ~oracle ~counters ()
  in
  (* One deterministic clock for the whole observability layer: optimized
     cycles plus the analytic baseline-tier cycles. Built on the always-on
     [clock_base_instrs] (not the measuring-gated counter) so backoff decay
     and cooldown expiry — simulated behavior — cannot depend on when the
     harness toggles measurement. *)
  let obs_clock () =
    mach.Tce_machine.Machine.cycle
    + int_of_float
        (float_of_int mach.Tce_machine.Machine.clock_base_instrs
        *. config.mach_cfg.Tce_machine.Config.baseline_cpi)
  in
  Tce_obs.Trace.set_clock config.trace obs_clock;
  CC.set_trace cc config.trace;
  CC.set_fault cc config.fault;
  (* never mutate the shared Injector.null (parallel domains) *)
  if Tce_fault.Injector.armed config.fault then
    Tce_fault.Injector.set_trace config.fault config.trace;
  (* global variable cells live in simulated memory, initialized to null *)
  let n_globals = max 1 (Array.length prog.Bytecode.globals) in
  let globals_base = Mem.allocate heap.Heap.mem ~bytes:(8 * n_globals) ~align:64 in
  for i = 0 to n_globals - 1 do
    Mem.store heap.Heap.mem (globals_base + (8 * i)) heap.Heap.null_v
  done;
  {
    cfg = config;
    heap;
    prog;
    cl;
    cc;
    oracle;
    counters;
    mach;
    io = Runtime.make_io ~trace:config.trace;
    opt_table = Hashtbl.create 64;
    shadow_table = Hashtbl.create 64;
    next_opt_id = 0;
    next_code_addr = 0x4000_0000;
    host = None;
    depth = 0;
    globals_base;
    snap = Tce_obs.Snapshot.create ~every:config.obs_sample_cycles;
    obs_clock;
    regs_pool = [];
    binop_cell = ref Tce_jit.Feedback.Bf_smi;
  }

let of_source ?config src = create ?config (Bc_compile.compile_source src)

let output t = Buffer.contents t.io.Runtime.out

(* --- measurement control --- *)

let set_measuring t on = t.mach.Tce_machine.Machine.measuring <- on

let reset_measurement t =
  Tce_machine.Counters.reset t.counters;
  Tce_machine.Cache.reset_stats t.mach.Tce_machine.Machine.l1d;
  Tce_machine.Cache.reset_stats t.mach.Tce_machine.Machine.l1i;
  Tce_machine.Cache.reset_stats t.mach.Tce_machine.Machine.l2;
  Tce_machine.Tlb.reset_stats t.mach.Tce_machine.Machine.dtlb;
  Tce_machine.Tlb.reset_stats t.mach.Tce_machine.Machine.itlb;
  Tce_machine.Branch.reset_stats t.mach.Tce_machine.Machine.bp;
  CC.reset_stats t.cc

let measuring t = t.mach.Tce_machine.Machine.measuring

(* --- cost accounting for the baseline tier --- *)

(** Baseline instruction charge of one bytecode op — pure, so the
    interpreter bakes it per pc into [Bytecode.func.base_cost] instead of
    re-matching the op every execution. The mechanism's store surcharge is
    engine-constant, making the baked array engine-stable. *)
let baseline_cost_of t (bc : Bytecode.bc) =
  let n = Tce_machine.Costs.baseline_op_instrs bc in
  match bc with
  | Bytecode.SetProp _ | SetElem _ when t.cfg.mechanism ->
    n + Tce_machine.Costs.mechanism_store_extra
  | _ -> n

let charge_baseline_extra t extra n =
  t.mach.Tce_machine.Machine.clock_base_instrs <-
    t.mach.Tce_machine.Machine.clock_base_instrs + n;
  if measuring t then begin
    t.counters.Tce_machine.Counters.baseline_instrs <-
      t.counters.Tce_machine.Counters.baseline_instrs + n;
    if Tce_prof.Profile.on t.cfg.prof then
      Tce_prof.Profile.base_extra t.cfg.prof extra n
  end

(* --- observability --- *)

let trace t = t.cfg.trace

(** Sum an [n]-set array into at most 8 contiguous buckets, so the Perfetto
    heatmap track count stays fixed across Class Cache geometries. *)
let bucket8 a =
  let n = Array.length a in
  if n <= 8 then Array.copy a
  else begin
    let b = Array.make 8 0 in
    for i = 0 to n - 1 do
      let j = i * 8 / n in
      b.(j) <- b.(j) + a.(i)
    done;
    b
  end

(** Take a counter snapshot when the sampling period elapsed. Called from
    cheap, deterministic points (guest calls, store events); reads state
    only, so cycle counts are unaffected. *)
let obs_tick t =
  if Tce_obs.Snapshot.active t.snap then begin
    let now = t.obs_clock () in
    Tce_obs.Snapshot.tick t.snap ~now (fun () ->
        {
          Tce_obs.Snapshot.at = now;
          deopts = t.counters.Tce_machine.Counters.deopts;
          cc_occupancy = CC.occupancy t.cc;
          cc_set_occupancy = bucket8 (CC.set_occupancy t.cc);
          cc_conflicts = Array.fold_left ( + ) 0 (CC.set_conflicts t.cc);
          heap_bytes = t.heap.Heap.stats.Heap.object_bytes;
          prof_costs =
            (if Tce_prof.Profile.on t.cfg.prof then
               Tce_prof.Profile.cost_totals_named t.cfg.prof
             else [||]);
        })
  end

(** Emit an [Ic_transition] event for a feedback-recorder result. *)
let emit_ic t ~site ~slot = function
  | None -> ()
  | Some (from_state, to_state) ->
    let tr = trace t in
    if Tce_obs.Trace.on tr then
      Tce_obs.Trace.emit tr
        (Tce_obs.Trace.Ic_transition { site; slot; from_state; to_state })

(* --- speculation bookkeeping --- *)

(** Charge one deopt against [fn]'s decaying budget and, past the storm
    threshold, impose an exponentially growing re-speculation cooldown
    (emitting a [Backoff] event). Quiet simulated time forgives past deopts
    (one per [decay_cycles]), so a function recovers full re-speculation
    once the churn stops — the graceful replacement of the old
    [max_deopts] permanent disable. *)
let apply_backoff t (fn : Bytecode.func) =
  let now = t.obs_clock () in
  if fn.Bytecode.last_deopt_at > 0 then begin
    let forgiven = (now - fn.Bytecode.last_deopt_at) / decay_cycles in
    if forgiven > 0 then begin
      fn.Bytecode.deopt_count <- max 0 (fn.Bytecode.deopt_count - forgiven);
      fn.Bytecode.backoff_level <- max 0 (fn.Bytecode.backoff_level - forgiven)
    end
  end;
  fn.Bytecode.last_deopt_at <- max 1 now;
  fn.Bytecode.deopt_count <- fn.Bytecode.deopt_count + 1;
  if fn.Bytecode.deopt_count > storm_threshold then begin
    let expn = min fn.Bytecode.backoff_level max_backoff_exponent in
    fn.Bytecode.backoff_until <- now + (base_cooldown_cycles lsl expn);
    fn.Bytecode.backoff_level <- fn.Bytecode.backoff_level + 1;
    Tce_attr.Ledger.record_pin t.cfg.attr ~fn:fn.Bytecode.name
      ~exponent:fn.Bytecode.backoff_level;
    let tr = trace t in
    if Tce_obs.Trace.on tr then
      Tce_obs.Trace.emit tr
        (Tce_obs.Trace.Backoff
           {
             func = fn.Bytecode.name;
             level = fn.Bytecode.backoff_level;
             until = fn.Bytecode.backoff_until;
           })
  end

(** Function names behind a list of victim opt_ids (chain reporting). *)
let victim_names t opt_ids =
  List.filter_map
    (fun oid ->
      match Hashtbl.find_opt t.opt_table oid with
      | Some code -> Some t.prog.Bytecode.funcs.(code.Lir.fn_id).Bytecode.name
      | None -> None)
    opt_ids

let invalidate_opt t opt_ids =
  List.iter
    (fun oid ->
      match Hashtbl.find_opt t.opt_table oid with
      | Some code when not code.Lir.invalidated ->
        code.Lir.invalidated <- true;
        let fn = t.prog.Bytecode.funcs.(code.Lir.fn_id) in
        (match fn.Bytecode.opt with
        | Some cur when cur.Lir.opt_id = oid -> fn.Bytecode.opt <- None
        | _ -> ());
        apply_backoff t fn;
        (* drop the dead code's other registrations so stale SpeculateMap
           bits cannot fire again *)
        CL.remove_function t.cl ~fn:oid
      | _ -> ())
    opt_ids

let is_invalidated t oid =
  match Hashtbl.find_opt t.opt_table oid with
  | Some code -> code.Lir.invalidated
  | None -> true

(* --- retire-path invariant check (fault campaigns only) --- *)

(** Is [oid]'s installed speculation stale — does its [spec_deps] name a
    slot whose ValidMap bit is cleared, or that the ground-truth oracle saw
    go polymorphic while the Class List still calls it valid? Both are
    impossible in unfaulted runs (exception delivery is synchronous and
    reliable, and the Class List tracks the oracle exactly — the qcheck
    property in test_core), so a positive answer proves a lost, dropped or
    corrupted notification. Uses non-materializing Class List peeks so the
    check itself cannot perturb lazy parent-inheritance. *)
let stale_speculation t oid =
  match Hashtbl.find_opt t.opt_table oid with
  | Some code when not code.Lir.invalidated ->
    List.exists
      (fun (classid, line, pos) ->
        (not (CL.is_valid_peek t.cl ~classid ~line ~pos))
        ||
        (* Cross-examine the Class List's claim against the ground-truth
           oracle. The oracle keys by the *storing-time* class while the
           Class List inherits profiles down the transition tree, so a
           speculated slot's claim can come from an ancestor: compare the
           claimed value class against every class the oracle observed for
           the slot rather than asking the oracle for monomorphism. *)
        match CL.claimed_class_peek t.cl ~classid ~line ~pos with
        | Some claimed ->
          List.exists
            (fun c -> c <> claimed)
            (Tce_core.Oracle.observed_classes t.oracle ~classid ~line ~pos)
        | None ->
          not (Tce_core.Oracle.is_monomorphic t.oracle ~classid ~line ~pos))
      code.Lir.spec_deps
  | _ -> false

(** An injected inconsistency was caught: invalidate the code and pin the
    function to the fully-checked interpreter (re-speculating on poisoned
    profiling state could mask the next fault). *)
let detect_stale t oid ~cause =
  match Hashtbl.find_opt t.opt_table oid with
  | None -> ()
  | Some code ->
    let fn = t.prog.Bytecode.funcs.(code.Lir.fn_id) in
    let tr = trace t in
    if Tce_obs.Trace.on tr then
      Tce_obs.Trace.emit tr
        (Tce_obs.Trace.Fault_detected
           { func = fn.Bytecode.name; opt_id = oid; cause });
    Tce_fault.Injector.note_detected t.cfg.fault;
    invalidate_opt t [ oid ];
    fn.Bytecode.opt_disabled <- true

(** Fire the profiling/verification side of a property or elements store
    executed in the baseline tier or a runtime stub (the special-store
    request of §4.2.1.3, plus the measurement oracle). *)
let fire_store_event t ~classid ~line ~pos ~value_classid =
  obs_tick t;
  Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid;
  (* Positions beyond the Class List's tracked range are never profiled:
     the store stays fully checked (the oracle above still records ground
     truth, so check-removal accounting sees the missed opportunity). *)
  if t.cfg.mechanism && CL.is_tracked t.cl ~pos then begin
    let r = CC.access t.cc t.cl ~classid ~line ~pos ~value_classid in
    if r.CC.exn_raised then begin
      if measuring t then
        t.counters.Tce_machine.Counters.cc_exception_deopts <-
          t.counters.Tce_machine.Counters.cc_exception_deopts + 1;
      if Tce_attr.Ledger.on t.cfg.attr then
        Tce_attr.Ledger.record_chain t.cfg.attr ~at:(t.obs_clock ())
          ~store:
            (Printf.sprintf "store of class %d into slot(%d,%d)" value_classid
               line pos)
          ~classid ~line ~pos
          ~victims:(victim_names t r.CC.functions_to_deopt);
      invalidate_opt t r.CC.functions_to_deopt
    end
  end

(** Class of a stored element value as the profile sees it (double-kind
    arrays always profile HeapNumber — the unboxed representation). *)
let elem_value_classid t obj v =
  match Heap.elements_kind t.heap obj with
  | Hidden_class.E_double ->
    (Hidden_class.Registry.number_class t.heap.Heap.reg).Hidden_class.id
  | _ -> Heap.classid_of t.heap v

(* --- property / element accessors with IC + profiling --- *)

let record_obj_load t ~classid ~line ~pos =
  if measuring t then
    Tce_machine.Counters.record_obj_load t.counters ~classid ~line ~pos

(** Baseline GetProp: feedback update + load. [fb_slot] < 0 for feedback-less
    megamorphic stub calls from optimized code. *)
(* Not a closure inside [get_prop]: the record path runs per property
   access, and a per-call closure allocation there is measurable. *)
let record_prop_load t (fb : Feedback.t option) fb_slot ~classid ~slot =
  match fb with
  | Some fb when fb_slot >= 0 ->
    emit_ic t ~site:"prop-load" ~slot:fb_slot
      (Feedback.record_prop_simple fb fb_slot ~classid ~slot)
  | _ -> ()

let get_prop t (fb : Feedback.t option) fb_slot obj name : Value.t =
  let h = t.heap in
  if Value.is_smi h.Heap.null_v then assert false;
  if Value.is_smi obj then raise (Engine_error ("property access on SMI: " ^ name));
  let c = Heap.class_of_addr h (Value.ptr_addr obj) in
  match (c.Hidden_class.kind, name) with
  | Hidden_class.K_string, "length" ->
    record_prop_load t fb fb_slot ~classid:c.Hidden_class.id ~slot:2;
    Mem.load h.Heap.mem (Value.ptr_addr obj + 16)
  | (Hidden_class.K_array _ | K_object), "length"
    when not (Hashtbl.mem c.Hidden_class.prop_index "length") ->
    record_prop_load t fb fb_slot ~classid:c.Hidden_class.id
      ~slot:Layout.elements_len_slot;
    Mem.load h.Heap.mem (Value.ptr_addr obj + (Layout.elements_len_slot * 8))
  | _ -> (
    match Hidden_class.slot_of_prop c name with
    | Some slot ->
      record_prop_load t fb fb_slot ~classid:c.Hidden_class.id ~slot;
      let line, pos = Layout.line_pos_of_slot slot in
      record_obj_load t ~classid:c.Hidden_class.id ~line ~pos;
      Heap.load_slot h obj slot
    | None ->
      (* absent property: go megamorphic, read as null (JS undefined) *)
      (match fb with
      | Some fb when fb_slot >= 0 -> fb.(fb_slot) <- Feedback.S_prop Feedback.Ic_mega
      | _ -> ());
      h.Heap.null_v)

let set_prop t (fb : Feedback.t option) fb_slot obj name v =
  let h = t.heap in
  if Value.is_smi obj then raise (Engine_error ("property store on SMI: " ^ name));
  if not (Heap.is_object h obj) then
    raise (Engine_error ("property store on non-object: " ^ name));
  let c0 = Heap.class_of_addr h (Value.ptr_addr obj) in
  let slot, transitioned = Heap.set_prop h obj name v in
  let c1 = Heap.class_of_addr h (Value.ptr_addr obj) in
  (match fb with
  | Some fb when fb_slot >= 0 ->
    emit_ic t ~site:"prop-store" ~slot:fb_slot
      (if transitioned then
         Feedback.record_prop fb fb_slot
           {
             Feedback.classid = c0.Hidden_class.id;
             slot;
             transition_to = Some c1.Hidden_class.id;
           }
       else
         Feedback.record_prop_simple fb fb_slot ~classid:c0.Hidden_class.id
           ~slot)
  | _ -> ());
  if transitioned then
    charge_baseline_extra t Tce_prof.Profile.extra_transition
      Tce_machine.Costs.transition_instrs;
  let line, pos = Layout.line_pos_of_slot slot in
  fire_store_event t ~classid:c1.Hidden_class.id ~line ~pos
    ~value_classid:(Heap.classid_of h v)

let get_elem t (fb : Feedback.t option) fb_slot obj idx : Value.t =
  let h = t.heap in
  if Value.is_smi obj then raise (Engine_error "indexed access on SMI");
  let c = Heap.class_of_addr h (Value.ptr_addr obj) in
  if c.Hidden_class.kind = Hidden_class.K_string then begin
    (* s[i]: one-character string *)
    let s = Heap.string_value h obj in
    let i = Value.smi_value idx in
    if i < 0 || i >= String.length s then h.Heap.null_v
    else Heap.intern_string h (String.make 1 s.[i])
  end
  else begin
    let i =
      if Value.is_smi idx then Value.smi_value idx
      else int_of_float (Runtime.to_number h idx)
    in
    (match fb with
    | Some fb when fb_slot >= 0 ->
      emit_ic t ~site:"elem-load" ~slot:fb_slot
        (Feedback.record_elem fb fb_slot ~classid:c.Hidden_class.id)
    | _ -> ());
    record_obj_load t ~classid:c.Hidden_class.id ~line:0
      ~pos:Layout.elements_ptr_slot;
    Heap.elem_get h obj i
  end

let set_elem t (fb : Feedback.t option) fb_slot obj idx v =
  let h = t.heap in
  if Value.is_smi obj || not (Heap.is_object h obj) then
    raise (Engine_error "indexed store on non-object");
  let c = Heap.class_of_addr h (Value.ptr_addr obj) in
  let i =
    if Value.is_smi idx then Value.smi_value idx
    else int_of_float (Runtime.to_number h idx)
  in
  (match fb with
  | Some fb when fb_slot >= 0 ->
    emit_ic t ~site:"elem-store" ~slot:fb_slot
      (Feedback.record_elem fb fb_slot ~classid:c.Hidden_class.id)
  | _ -> ());
  let slow = Heap.elem_set h obj i v in
  if slow then begin
    charge_baseline_extra t Tce_prof.Profile.extra_elem_grow 40;
    let tr = trace t in
    if Tce_obs.Trace.on tr then
      Tce_obs.Trace.emit tr
        (Tce_obs.Trace.Gc
           {
             heap_bytes = h.Heap.stats.Heap.object_bytes;
             grows = h.Heap.stats.Heap.elements_grows;
           })
  end;
  let c1 = Heap.class_of_addr h (Value.ptr_addr obj) in
  (* an in-place elements-kind transition changed this object's class:
     retire profiles naming the old class (map-stability invalidation) *)
  if c1.Hidden_class.id <> c.Hidden_class.id then begin
    Tce_core.Oracle.retire_value_class t.oracle
      ~value_classid:c.Hidden_class.id;
    if t.cfg.mechanism then begin
      let fns = CL.retire_value_class t.cl ~value_classid:c.Hidden_class.id in
      if fns <> [] then begin
        let tr = trace t in
        if Tce_obs.Trace.on tr then
          Tce_obs.Trace.emit tr
            (Tce_obs.Trace.Cc_exception
               {
                 classid = c.Hidden_class.id;
                 line = 0;
                 pos = Layout.elements_ptr_slot;
                 victims = List.length fns;
               });
        if measuring t then
          t.counters.Tce_machine.Counters.cc_exception_deopts <-
            t.counters.Tce_machine.Counters.cc_exception_deopts + 1;
        if Tce_attr.Ledger.on t.cfg.attr then
          Tce_attr.Ledger.record_chain t.cfg.attr ~at:(t.obs_clock ())
            ~store:
              (Printf.sprintf
                 "elements-kind transition of class %d retired its profiles"
                 c.Hidden_class.id)
            ~classid:c.Hidden_class.id ~line:0 ~pos:Layout.elements_ptr_slot
            ~victims:(victim_names t fns);
        invalidate_opt t fns
      end
    end
  end;
  (* profile under the class *after* any elements-kind transition *)
  fire_store_event t ~classid:c1.Hidden_class.id ~line:0
    ~pos:Layout.elements_ptr_slot ~value_classid:(elem_value_classid t obj v)

(* --- tier-up --- *)

let try_optimize t (fn : Bytecode.func) =
  if
    t.cfg.jit && fn.Bytecode.opt = None
    && (not fn.Bytecode.opt_disabled)
    && (fn.Bytecode.call_count >= hot_call_count
       || fn.Bytecode.backedge_count >= hot_backedge_count)
  then
  (* deopt-storm backoff: re-speculation waits out the cooldown
     (backoff_until is 0 until the storm threshold is ever exceeded) *)
  if
    not
      (fn.Bytecode.backoff_until = 0
      || t.obs_clock () >= fn.Bytecode.backoff_until)
  then
    Tce_attr.Ledger.record_respec t.cfg.attr ~fn:fn.Bytecode.name
      ~outcome:"backoff-pinned"
  else begin
    let opt_id = t.next_opt_id in
    t.next_opt_id <- opt_id + 1;
    (* inline small hot callees first (Crankshaft-style); the inlined view
       is cached: deopts resume (and record feedback) on it, so recompiles
       must see that learning *)
    let fn_view =
      match fn.Bytecode.shadow with
      | Some s -> s
      | None -> (
        match Inline.expand t.prog fn with
        | Some s ->
          fn.Bytecode.shadow <- Some s;
          s
        | None -> fn)
    in
    match
      Opt.compile
        {
          Opt.prog = t.prog;
          heap = t.heap;
          cl = t.cl;
          mechanism = t.cfg.mechanism;
          hoisting = t.cfg.hoisting;
          checked_load = t.cfg.checked_load;
          fn = fn_view;
          opt_id;
          code_addr = t.next_code_addr;
          globals_base = t.globals_base;
          attr = t.cfg.attr;
        }
    with
    | code ->
      t.next_code_addr <-
        t.next_code_addr + (4 * Array.length code.Lir.code) + 64;
      fn.Bytecode.opt <- Some code;
      Hashtbl.replace t.opt_table opt_id code;
      Hashtbl.replace t.shadow_table opt_id fn_view;
      (* pre-decode at install time so the first execution runs the
         specialized stream without paying the decode *)
      ignore (Tce_machine.Machine.install t.mach code);
      let tr = trace t in
      if Tce_obs.Trace.on tr then begin
        Tce_obs.Trace.emit tr
          (Tce_obs.Trace.Compile
             {
               func = fn.Bytecode.name;
               opt_id;
               instrs = Array.length code.Lir.code;
               bailout = None;
             });
        Tce_obs.Trace.emit tr
          (Tce_obs.Trace.Tierup
             { func = fn.Bytecode.name; fn_id = fn.Bytecode.id; opt_id })
      end;
      if measuring t then
        t.counters.Tce_machine.Counters.tierups <-
          t.counters.Tce_machine.Counters.tierups + 1;
      Tce_attr.Ledger.record_respec t.cfg.attr ~fn:fn.Bytecode.name
        ~outcome:"reoptimized";
      (* install speculation: SpeculateMap bits + FunctionList entries *)
      List.iter
        (fun (classid, line, pos) ->
          CL.add_speculation t.cl ~classid ~line ~pos ~fn:opt_id)
        code.Lir.spec_deps
    | exception Opt.Bailout msg ->
      let tr = trace t in
      if Tce_obs.Trace.on tr then
        Tce_obs.Trace.emit tr
          (Tce_obs.Trace.Compile
             { func = fn.Bytecode.name; opt_id; instrs = 0; bailout = Some msg });
      Tce_attr.Ledger.record_respec t.cfg.attr ~fn:fn.Bytecode.name
        ~outcome:"bailed out";
      fn.Bytecode.opt_disabled <- true
  end

(* --- the interpreter --- *)

let rec call_function t fid (args : Value.t array) : Value.t =
  obs_tick t;
  let fn = t.prog.Bytecode.funcs.(fid) in
  fn.Bytecode.call_count <- fn.Bytecode.call_count + 1;
  t.depth <- t.depth + 1;
  if t.depth > max_depth then raise (Engine_error "guest stack overflow");
  try_optimize t fn;
  let interp () =
    let n = max fn.Bytecode.n_regs 1 in
    (* pooled register file: recycle instead of one [Array.make] per call
       (registers are immediate [Value.t]s, so reuse is GC-transparent);
       the used prefix is re-initialized to the fresh-allocation state *)
    let regs =
      match t.regs_pool with
      | a :: rest when Array.length a >= n ->
        t.regs_pool <- rest;
        Array.fill a 0 n t.heap.Heap.null_v;
        a
      | _ -> Array.make n t.heap.Heap.null_v
    in
    Array.blit args 0 regs 0 (min (Array.length args) fn.Bytecode.n_regs);
    let r = interp_from t fn regs 0 in
    t.regs_pool <- regs :: t.regs_pool;
    r
  in
  let result =
    match fn.Bytecode.opt with
    | Some code when not code.Lir.invalidated ->
      (* retire-path invariant check at code entry (campaigns only): refuse
         to dispatch optimized code whose speculation went stale under
         injection — fall back to the fully-checked interpreter instead *)
      if
        Tce_fault.Injector.armed t.cfg.fault
        && stale_speculation t code.Lir.opt_id
      then begin
        detect_stale t code.Lir.opt_id ~cause:"stale-speculation-at-entry";
        interp ()
      end
      else Tce_machine.Machine.run t.mach (host t) code args
    | _ -> interp ()
  in
  t.depth <- t.depth - 1;
  result

and construct t fid (args : Value.t array) : Value.t =
  let ctor = t.prog.Bytecode.funcs.(fid) in
  if not ctor.Bytecode.is_ctor then
    raise (Engine_error ("new on non-constructor " ^ ctor.Bytecode.name));
  let base =
    match ctor.Bytecode.base_class with
    | Some c -> c
    | None ->
      let c =
        Hidden_class.Registry.fresh t.heap.Heap.reg ~kind:Hidden_class.K_object
          ~name:ctor.Bytecode.name ~prop_names:[||]
      in
      ctor.Bytecode.base_class <- Some c;
      c
  in
  let this = Heap.alloc_object t.heap base ~reserve_props:ctor.Bytecode.reserve_props in
  let n = Array.length args in
  let argv = Array.make (n + 1) this in
  for i = 0 to n - 1 do
    argv.(i + 1) <- args.(i)
  done;
  call_function t fid argv

and bc_label (op : Bytecode.bc) =
  match op with
  | Bytecode.LoadInt _ | LoadNum _ | LoadStr _ | LoadBool _ | LoadNull _ ->
    "load-const"
  | Move _ -> "move"
  | BinOp _ -> "binop"
  | UnOp _ -> "unop"
  | GetProp _ -> "get-prop"
  | SetProp _ -> "set-prop"
  | GetElem _ -> "get-elem"
  | SetElem _ -> "set-elem"
  | GetGlobal _ | SetGlobal _ -> "global"
  | NewObject _ | AllocCtor _ | NewArray _ -> "alloc"
  | Call _ | CallB _ | New _ -> "call"
  | Jump _ | JumpIfFalse _ | JumpIfTrue _ -> "branch"
  | Return _ -> "return"

and interp_from t (fn : Bytecode.func) (regs : Value.t array) start_pc : Value.t =
  let h = t.heap in
  let code = fn.Bytecode.code in
  let fb = fn.Bytecode.fb in
  (* per-pc baseline charges, baked once per function (the length check
     also rebuilds after an inline-expansion swap, which resets the field) *)
  let costs =
    if Array.length fn.Bytecode.base_cost = Array.length code then
      fn.Bytecode.base_cost
    else begin
      let a = Array.map (baseline_cost_of t) code in
      fn.Bytecode.base_cost <- a;
      a
    end
  in
  let counters = t.counters in
  let prof = t.cfg.prof in
  let pon = Tce_prof.Profile.on prof in
  let bacc =
    if pon then
      (* keyed by (fn id, code length): a shadow (inlined) body shares the
         original's id with different code, and must keep its own cells *)
      match
        Tce_prof.Profile.find_base_acc prof ~id:fn.Bytecode.id
          ~pcs:(Array.length code)
      with
      | Some a -> a
      | None ->
        Tce_prof.Profile.register_base prof ~id:fn.Bytecode.id
          ~name:fn.Bytecode.name ~labels:(Array.map bc_label code)
    else Tce_prof.Profile.dummy_acc
  in
  let pc = ref start_pc in
  let running = ref true in
  let resv = ref h.Heap.null_v in
  (* hoisted: measurement is toggled by the harness between guest calls,
     never mid-execution, so it is loop-invariant here *)
  let msr = measuring t in
  let mach = t.mach in
  while !running do
    let pc0 = !pc in
    let op = code.(pc0) in
    mach.Tce_machine.Machine.clock_base_instrs <-
      mach.Tce_machine.Machine.clock_base_instrs + Array.unsafe_get costs pc0;
    if msr then begin
      counters.Tce_machine.Counters.baseline_instrs <-
        counters.Tce_machine.Counters.baseline_instrs
        + Array.unsafe_get costs pc0;
      if pon then begin
        Tce_prof.Profile.set_base_site prof bacc pc0;
        Tce_prof.Profile.base_add prof (Array.unsafe_get costs pc0)
      end
    end;
    let next = pc0 + 1 in
    (match op with
    | Bytecode.LoadInt (r, i) ->
      regs.(r) <- Value.smi i;
      pc := next
    | LoadNum (r, x) ->
      regs.(r) <- Heap.float_const h x;
      pc := next
    | LoadStr (r, s) ->
      regs.(r) <- Heap.intern_string h s;
      pc := next
    | LoadBool (r, b) ->
      regs.(r) <- Heap.bool_v h b;
      pc := next
    | LoadNull r ->
      regs.(r) <- h.Heap.null_v;
      pc := next
    | Move (d, s) ->
      regs.(d) <- regs.(s);
      pc := next
    | BinOp (bop, d, a, b, slot) ->
      let v = Runtime.eval_binop_cell h bop regs.(a) regs.(b) t.binop_cell in
      emit_ic t ~site:"binop" ~slot (Feedback.record_binop fb slot !(t.binop_cell));
      regs.(d) <- v;
      pc := next
    | UnOp (uop, d, a) ->
      regs.(d) <- Runtime.eval_unop h uop regs.(a);
      pc := next
    | GetProp (d, o, name, slot) ->
      regs.(d) <- get_prop t (Some fb) slot regs.(o) name;
      pc := next
    | SetProp (o, name, v, slot) ->
      set_prop t (Some fb) slot regs.(o) name regs.(v);
      pc := next
    | GetElem (d, o, i, slot) ->
      regs.(d) <- get_elem t (Some fb) slot regs.(o) regs.(i);
      pc := next
    | SetElem (o, i, v, slot) ->
      set_elem t (Some fb) slot regs.(o) regs.(i) regs.(v);
      pc := next
    | GetGlobal (d, i) ->
      regs.(d) <- Mem.load h.Heap.mem (t.globals_base + (8 * i));
      pc := next
    | SetGlobal (i, r) ->
      Mem.store h.Heap.mem (t.globals_base + (8 * i)) regs.(r);
      pc := next
    | NewObject d ->
      let root = Hidden_class.Registry.object_root_class h.Heap.reg in
      regs.(d) <- Heap.alloc_object h root ~reserve_props:8;
      pc := next
    | AllocCtor (d, fid) ->
      let ctor = t.prog.Bytecode.funcs.(fid) in
      let base =
        match ctor.Bytecode.base_class with
        | Some c -> c
        | None ->
          let c =
            Hidden_class.Registry.fresh t.heap.Heap.reg ~kind:Hidden_class.K_object
              ~name:ctor.Bytecode.name ~prop_names:[||]
          in
          ctor.Bytecode.base_class <- Some c;
          c
      in
      regs.(d) <- Heap.alloc_object h base ~reserve_props:ctor.Bytecode.reserve_props;
      pc := next
    | NewArray (d, cap) ->
      regs.(d) <- Heap.alloc_array h ~capacity:(max cap 4) Hidden_class.E_smi;
      pc := next
    | Call (d, fid, argr) ->
      let n = Array.length argr in
      let args = Array.make (n + 1) h.Heap.null_v in
      for i = 0 to n - 1 do
        args.(i + 1) <- regs.(argr.(i))
      done;
      regs.(d) <- call_function t fid args;
      pc := next
    | CallB (d, b, argr) ->
      let args = Array.map (fun r -> regs.(r)) argr in
      regs.(d) <- apply_builtin t b args;
      pc := next
    | New (d, fid, argr) ->
      regs.(d) <- construct t fid (Array.map (fun r -> regs.(r)) argr);
      pc := next
    | Jump target ->
      if target <= pc0 then
        fn.Bytecode.backedge_count <- fn.Bytecode.backedge_count + 1;
      pc := target
    | JumpIfFalse (r, target) ->
      if Heap.is_truthy h regs.(r) then pc := next
      else begin
        if target <= pc0 then
          fn.Bytecode.backedge_count <- fn.Bytecode.backedge_count + 1;
        pc := target
      end
    | JumpIfTrue (r, target) ->
      if Heap.is_truthy h regs.(r) then begin
        if target <= pc0 then
          fn.Bytecode.backedge_count <- fn.Bytecode.backedge_count + 1;
        pc := target
      end
      else pc := next
    | Return r ->
      resv := regs.(r);
      running := false)
  done;
  !resv

(* --- machine host --- *)

and host t : Tce_machine.Machine.host =
  match t.host with
  | Some h -> h
  | None ->
    let h =
      {
        Tce_machine.Machine.call_fn = (fun fid args -> call_function t fid args);
        resume =
          (fun ~opt_id ~bc_pc ~regs ~result ->
            (* resume on the shadow bytecode the code was compiled from *)
            let fn = Hashtbl.find t.shadow_table opt_id in
            let r = Array.make (max fn.Bytecode.n_regs 1) t.heap.Heap.null_v in
            Array.blit regs 0 r 0 (min (Array.length regs) fn.Bytecode.n_regs);
            (match result with
            | Some (into, v) when into >= 0 -> r.(into) <- v
            | _ -> ());
            interp_from t fn r bc_pc);
        rt_call = (fun rt args fargs -> rt_call t rt args fargs);
        on_cc_exception =
          (fun (i : Tce_machine.Machine.cc_exn_info) ->
            if Tce_attr.Ledger.on t.cfg.attr then
              Tce_attr.Ledger.record_chain t.cfg.attr ~at:(t.obs_clock ())
                ~store:
                  (Printf.sprintf "store of class %d into slot(%d,%d)"
                     i.Tce_machine.Machine.cc_value_classid
                     i.Tce_machine.Machine.cc_line i.Tce_machine.Machine.cc_pos)
                ~classid:i.Tce_machine.Machine.cc_classid
                ~line:i.Tce_machine.Machine.cc_line
                ~pos:i.Tce_machine.Machine.cc_pos
                ~victims:(victim_names t i.Tce_machine.Machine.cc_victims);
            invalidate_opt t i.Tce_machine.Machine.cc_victims);
        on_deopt =
          (fun oid ->
            match Hashtbl.find_opt t.opt_table oid with
            | Some code ->
              code.Lir.deopt_hits <- code.Lir.deopt_hits + 1;
              (* V8-style: code that keeps failing its checks is discarded;
                 the next tier-up recompiles against the updated feedback *)
              if code.Lir.deopt_hits > instance_deopt_limit
              then invalidate_opt t [ oid ]
            | None -> ());
        is_invalidated =
          (fun oid ->
            is_invalidated t oid
            || Tce_fault.Injector.armed t.cfg.fault
               && stale_speculation t oid
               &&
               (* retire-path invariant check at the machine's lazy-deopt
                  points (call returns, special-store retirement): catch an
                  in-flight victim of a lost/dropped notification and OSR
                  it out before stale assumptions are consumed further *)
               (detect_stale t oid ~cause:"stale-speculation-in-flight";
                true));
      }
    in
    t.host <- Some h;
    h

(** Builtins, with [push] routed through the engine's element store so its
    writes fire Class Cache / oracle events like any other store. *)
and apply_builtin t (b : Builtins.t) (args : Value.t array) : Value.t =
  match b with
  | Builtins.B_push ->
    let obj = args.(0) in
    if not (Heap.is_object t.heap obj) then
      raise (Engine_error "push: not an array");
    let len = Heap.elements_len t.heap obj in
    set_elem t None (-1) obj (Value.smi len) args.(1);
    Value.smi (len + 1)
  | _ -> Runtime.builtin_apply t.heap t.io b args

and rt_call t (rt : Lir.rt) (args : Value.t array) (fargs : float array) :
    Value.t * float =
  let h = t.heap in
  let ret v = (v, Runtime.float_of_result h v) in
  (* allocations from optimized code land in the (cache-resident) nursery *)
  let ret_alloc v =
    if Value.is_ptr v then begin
      let addr = Value.ptr_addr v in
      let bytes =
        if Heap.is_number h v then 16
        else Tce_vm.Layout.line_bytes * Heap.obj_lines h addr
      in
      Tce_machine.Machine.prefill t.mach ~addr ~bytes;
      (* arrays: the elements store too *)
      if Heap.is_object h v && Heap.elements_ptr h v <> 0 then begin
        let e = Heap.elements_ptr h v in
        Tce_machine.Machine.prefill t.mach ~addr:e
          ~bytes:((Tce_vm.Layout.elements_header_words + Heap.elements_capacity h e) * 8)
      end
    end;
    ret v
  in
  match rt with
  | Lir.Rt_alloc_object (cid, reserve) ->
    ret_alloc
      (Heap.alloc_object h
         (Hidden_class.Registry.find_exn h.Heap.reg cid)
         ~reserve_props:reserve)
  | Rt_alloc_array (ek, cap) -> ret_alloc (Heap.alloc_array h ~capacity:(max cap 1) ek)
  | Rt_box_double -> ret_alloc (Heap.number h fargs.(0))
  | Rt_generic_get_prop name -> ret (get_prop t None (-1) args.(0) name)
  | Rt_generic_set_prop name ->
    set_prop t None (-1) args.(0) name args.(1);
    ret h.Heap.null_v
  | Rt_generic_get_elem -> ret (get_elem t None (-1) args.(0) args.(1))
  | Rt_generic_set_elem ->
    set_elem t None (-1) args.(0) args.(1) args.(2);
    ret h.Heap.null_v
  | Rt_generic_binop op -> ret (fst (Runtime.eval_binop h op args.(0) args.(1)))
  | Rt_generic_unop op -> ret (Runtime.eval_unop h op args.(0))
  | Rt_elem_store_slow ->
    set_elem t None (-1) args.(0) args.(1) args.(2);
    ret h.Heap.null_v
  | Rt_to_bool -> ret (Heap.bool_v h (Heap.is_truthy h args.(0)))
  | Rt_builtin b -> ret (apply_builtin t b args)
  | Rt_fmod -> (Value.smi 0, Tce_vm.Fbits.canon (Float.rem fargs.(0) fargs.(1)))
  | Rt_trap msg -> raise (Engine_error msg)

(* --- running programs --- *)

(** Execute the program's top level. *)
let run_main t : Value.t =
  let tr = trace t in
  if Tce_obs.Trace.on tr then Tce_obs.Trace.emit tr (Tce_obs.Trace.Phase "main");
  call_function t t.prog.Bytecode.main [| t.heap.Heap.null_v |]

(** Call a top-level function by name (used by the benchmark harness to
    drive steady-state iterations). *)
let call_by_name t name (args : Value.t array) : Value.t =
  match Bytecode.find_func t.prog name with
  | Some fn ->
    call_function t fn.Bytecode.id
      (Array.append [| t.heap.Heap.null_v |] args)
  | None -> raise (Engine_error ("no such function: " ^ name))

(** Total simulated cycles attributed to optimized code so far. *)
let opt_cycles t = t.mach.Tce_machine.Machine.cycle

(** Analytic cycles of the baseline tier. *)
let baseline_cycles t =
  float_of_int t.counters.Tce_machine.Counters.baseline_instrs
  *. t.cfg.mach_cfg.Tce_machine.Config.baseline_cpi
