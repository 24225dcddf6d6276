(** Cycle-level execution of optimized (LIR) code: a 4-wide in-order-dispatch
    / out-of-order-completion scoreboard with a 128-entry window, load/store
    queue, L1I/L1D/L2 caches, D/I-TLBs, a bimodal branch predictor and the
    Class Cache — parameters from {!Config} (the paper's Table 2).

    The model dispatches instructions in program order at up to
    [issue_width] per cycle, blocks dispatch when the window is full, lets
    results complete out of order at [dispatch + max(dep stalls) + latency],
    and restarts the front end on branch mispredictions — a standard
    research-grade approximation of a Nehalem-class core (MARSS substitute,
    see DESIGN.md).

    The executor runs the {!Predecode} stream, not [Lir.func.code], fused
    into one closure per basic block ({!Template}) — see
    lib/machine/README.md for the pre-decode and fusion invariants. The
    run loop is
    allocation-free: the window and store queue are int ring buffers, MSHR
    fill tracking is an {!Tce_support.Int_table}, dispatch-port kinds are
    ints, and loop exit is a [running] flag plus a result register instead
    of an [option] compared per iteration. *)

open Tce_vm
open Tce_jit
module Profile = Tce_prof.Profile

exception Trap of string

(** A misspeculation exception with the faulting-store context attached
    (what broke, where, and who has to deopt) — the attribution ledger's
    causal-chain anchor. *)
type cc_exn_info = {
  cc_classid : int;
  cc_line : int;
  cc_pos : int;
  cc_value_classid : int;
  cc_victims : int list;  (** opt_ids from the slot's FunctionList *)
}

(** Callbacks into the engine (tier driver). *)
type host = {
  call_fn : int -> Value.t array -> Value.t;
      (** call guest function [fn_id] with [this :: args] *)
  resume : opt_id:int -> bc_pc:int -> regs:Value.t array ->
           result:(int * Value.t) option -> Value.t;
      (** deoptimization: resume the interpreter mid-function *)
  rt_call : Lir.rt -> Value.t array -> float array -> Value.t * float;
      (** execute a runtime stub functionally *)
  on_cc_exception : cc_exn_info -> unit;
      (** invalidate the optimized code instances in [cc_victims] *)
  on_deopt : int -> unit;
      (** a check failed in this opt_id (engine discards code that
          deoptimizes repeatedly, like V8's deopt counters) *)
  is_invalidated : int -> bool;  (** has this opt_id been invalidated? *)
}

(** {2 Superinstruction templates}

    Per-run mutable state threaded through the fused step closures. The
    closures themselves are compiled once per installed compilation (they
    capture the machine, the [Lir.func] and all operands as immediates);
    everything that is fresh per {!run} call — the register files and the
    control state — travels in this record. *)
type tenv = {
  mutable te_host : host;
  mutable te_regs : Value.t array;
  mutable te_fregs : float array;
  mutable te_ready : int array;
  mutable te_fready : int array;
  mutable te_pc : int;  (** always a block leader between steps *)
  mutable te_running : bool;
  mutable te_res : Value.t;
}

type tstep = tenv -> unit

type tblock = {
  tb_steps : tstep array;
      (** fused straight-line steps, terminator (or a synthetic
          fall-through pc update) last *)
  tb_sum : Template.summary;
      (** en-bloc counter summary, applied once per block entry when
          measuring *)
}

type template = {
  tp_blocks : tblock array;
  tp_block_of_pc : int array;
}

type t = {
  cfg : Config.t;
  heap : Heap.t;
  cc : Tce_core.Class_cache.t;
  cl : Tce_core.Class_list.t;
  oracle : Tce_core.Oracle.t;
  counters : Counters.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  bp : Branch.t;
  mechanism : bool;  (** Class Cache mechanism on/off *)
  (* timing state *)
  mutable cycle : int;  (** current dispatch cycle *)
  mutable clock_base_instrs : int;
      (** baseline-tier instructions executed since creation — always
          counted (unlike [counters.baseline_instrs], which is gated on
          [measuring]) so the engine's observability/backoff clock is
          independent of the measurement protocol *)
  mutable slots : int;  (** instructions dispatched in this cycle *)
  mutable load_slots : int;  (** loads dispatched this cycle (1 load port) *)
  mutable store_slots : int;  (** stores dispatched this cycle (1 store port) *)
  (* completion times of in-flight instructions: a ring buffer (the run
     loop pushes ≤ 1 entry per dispatched instruction, so the capacity
     [window_size + 1] rounded to a power of two never overflows) *)
  win_buf : int array;
  win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  (* completion times of in-flight stores (same ring representation) *)
  stq_buf : int array;
  stq_mask : int;
  mutable stq_head : int;
  mutable stq_len : int;
  mutable last_iline : int;  (** last instruction-cache line fetched *)
  fills : Tce_support.Int_table.t;
      (** in-flight line fills: line -> cycle the data arrives (MSHR
          merging: a second access to a line being filled waits for the
          fill instead of seeing an instant hit); 0 = no fill recorded
          (completion cycles are always >= 1) *)
  pre_cache : (int, Predecode.func) Hashtbl.t;
      (** decoded streams keyed by [opt_id] (fresh per compilation; the
          physical-equality guard in {!install} covers id reuse) *)
  mutable measuring : bool;
  trace : Tce_obs.Trace.t;
      (** observability sink (deopt / OSR events; never affects timing) *)
  fault : Tce_fault.Injector.t;
      (** fault injector ({!Tce_fault.Injector.null} = disarmed): OSR-fail
          injection and the retire-path re-validation of special stores *)
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): records
          each deopt's typed reason; never affects timing *)
  prof : Profile.t;
      (** cycle-attribution profiler ({!Tce_prof.Profile.null} = disabled):
          every site that advances [cycle] reports the delta; reads the
          clock, never writes timing state *)
  (* special registers (paper §4.2.1.2) *)
  mutable reg_classid : int;
  reg_classid_arr : int array;
  tpl_cache : (int, Predecode.func * template option) Hashtbl.t;
      (** compiled templates keyed like {!pre_cache}, with the decoded
          stream kept for the physical-equality guard; always [Some] (a
          stream {!Template.layout} rejects raises {!Trap} instead) *)
  mutable env_pool : tenv list;
      (** free list of per-run environments; reusing the register files
          avoids four [Array.make]s per guest call (registers are
          immediate [Value.t]s, so recycling is GC-transparent) *)
}

(* Int-specialized max: [Stdlib.max] is polymorphic and compiles to a
   generic-compare C call — measurably hot at 2-5 uses per simulated
   instruction (dependency-stall arithmetic in both executors). *)
let[@inline] imax (a : int) (b : int) = if a >= b then a else b

let ring_capacity n =
  let rec go c = if c > n then c else go (c * 2) in
  go 16

let create ?(cfg = Config.default) ?(mechanism = true)
    ?(trace = Tce_obs.Trace.null) ?(fault = Tce_fault.Injector.null)
    ?(attr = Tce_attr.Ledger.null) ?(prof = Profile.null) ~heap ~cc ~cl
    ~oracle ~counters () =
  let win_cap = ring_capacity cfg.Config.window_size in
  let stq_cap = ring_capacity cfg.Config.outstanding_ldst in
  {
    cfg;
    heap;
    cc;
    cl;
    oracle;
    counters;
    l1d = Cache.create ~size_kb:cfg.dl1_kb ~ways:cfg.dl1_ways ~line_bytes:64;
    l1i = Cache.create ~size_kb:cfg.il1_kb ~ways:cfg.il1_ways ~line_bytes:64;
    l2 = Cache.create ~size_kb:cfg.l2_kb ~ways:cfg.l2_ways ~line_bytes:64;
    dtlb = Tlb.create ~entries:cfg.dtlb_entries;
    itlb = Tlb.create ~entries:cfg.itlb_entries;
    bp = Branch.create ();
    mechanism;
    cycle = 0;
    clock_base_instrs = 0;
    slots = 0;
    load_slots = 0;
    store_slots = 0;
    win_buf = Array.make win_cap 0;
    win_mask = win_cap - 1;
    win_head = 0;
    win_len = 0;
    stq_buf = Array.make stq_cap 0;
    stq_mask = stq_cap - 1;
    stq_head = 0;
    stq_len = 0;
    last_iline = -1;
    fills = Tce_support.Int_table.create ~size:4096 ();
    pre_cache = Hashtbl.create 64;
    measuring = true;
    trace;
    fault;
    attr;
    prof;
    reg_classid = 0;
    reg_classid_arr = Array.make 4 0;
    tpl_cache = Hashtbl.create 64;
    env_pool = [];
  }

(** {2 Pre-decode cache} *)

(** Decoded stream for [f], decoding at most once per compilation. Keyed by
    [opt_id] — fresh per compile — with a physical-equality guard so a
    rebuilt [Lir.func] under a reused id (unit tests) is re-decoded. *)
let install t (f : Lir.func) =
  match Hashtbl.find_opt t.pre_cache f.Lir.opt_id with
  | Some pf when pf.Predecode.lf == f -> pf
  | _ ->
    let pf = Predecode.decode f in
    Hashtbl.replace t.pre_cache f.Lir.opt_id pf;
    pf

(* --- timing primitives --- *)

(* dispatch-port kinds, matching Predecode.kind_* *)
let kind_load = Predecode.kind_load
let kind_store = Predecode.kind_store

let advance t =
  t.cycle <- t.cycle + 1;
  t.slots <- 0;
  t.load_slots <- 0;
  t.store_slots <- 0

(** Dispatch one instruction; returns its dispatch cycle. Loads and stores
    additionally contend for their single AGU/port (Nehalem: one load port,
    one store port), so memory-heavy code is port-bound — which is what
    makes removing Check Map loads profitable. *)
let dispatch_k t kind =
  if t.slots >= t.cfg.issue_width then advance t;
  if kind = kind_load then while t.load_slots >= 1 do advance t done
  else if kind = kind_store then while t.store_slots >= 1 do advance t done;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_dispatch t.cycle;
  if t.win_len >= t.cfg.window_size then begin
    (* window full: retire the oldest in-flight instruction *)
    let c = Array.unsafe_get t.win_buf t.win_head in
    t.win_head <- (t.win_head + 1) land t.win_mask;
    t.win_len <- t.win_len - 1;
    if c > t.cycle then begin
      t.cycle <- c;
      t.slots <- 0;
      t.load_slots <- 0;
      t.store_slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_window t.cycle;
  t.slots <- t.slots + 1;
  if kind = kind_load then t.load_slots <- t.load_slots + 1
  else if kind = kind_store then t.store_slots <- t.store_slots + 1;
  t.cycle

let complete t c =
  Array.unsafe_set t.win_buf ((t.win_head + t.win_len) land t.win_mask) c;
  t.win_len <- t.win_len + 1

(** Completion time of a data access to [addr] issued at [start], through
    DTLB + D-cache hierarchy, with MSHR merging of accesses to lines whose
    fill is still in flight. *)
let daccess t ~start addr =
  let tlb_hit = Tlb.access t.dtlb addr in
  let line = addr lsr 6 in
  let hit_l1 = Cache.access t.l1d addr in
  let lat =
    if hit_l1 then t.cfg.l1_load_latency
    else if Cache.access t.l2 addr then t.cfg.l1_load_latency + t.cfg.l2_latency
    else t.cfg.l1_load_latency + t.cfg.l2_latency + t.cfg.mem_latency
  in
  let lat = if tlb_hit then lat else lat + t.cfg.tlb_miss_penalty in
  if hit_l1 then begin
    let ready = Tce_support.Int_table.find t.fills line 0 in
    if ready > start then
      (* the line is still being filled: wait for it *)
      ready + t.cfg.l1_load_latency
    else start + lat
  end
  else begin
    let done_at = start + lat in
    Tce_support.Int_table.set t.fills line done_at;
    done_at
  end

(** Instruction fetch, slow path: called only when crossing into a new
    I-cache line (the line compare is inlined at the call sites). *)
let ifetch_slow t line =
  t.last_iline <- line;
  let addr = line lsl 6 in
  let tlb_hit = Tlb.access t.itlb addr in
  let hit = Cache.access t.l1i addr in
  if not hit then begin
    (* front-end bubble *)
    let pen =
      if Cache.access t.l2 addr then t.cfg.l2_latency
      else t.cfg.l2_latency + t.cfg.mem_latency
    in
    t.cycle <- t.cycle + pen;
    t.slots <- 0;
    t.load_slots <- 0;
    t.store_slots <- 0
  end;
  if not tlb_hit then begin
    t.cycle <- t.cycle + t.cfg.tlb_miss_penalty;
    t.slots <- 0;
    t.load_slots <- 0;
    t.store_slots <- 0
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_icache t.cycle

let cat_check_idx = Categories.index Categories.C_check

(** Charge a runtime-stub cost: serializes the pipeline. The cost is
    attributed to category index [cat_idx] (e.g. boxing stubs count as
    Tags/Untags); the profiler books it under [pcost] (this take also
    absorbs the caller's argument-readiness serialization, which advances
    the clock just before charging). *)
let charge_rt_i t ~pcost ~cat_idx ~instrs ~cycles =
  if t.measuring then
    t.counters.Counters.by_cat.(cat_idx) <-
      t.counters.Counters.by_cat.(cat_idx) + instrs;
  t.cycle <- t.cycle + cycles;
  t.slots <- 0;
  t.load_slots <- 0;
  t.store_slots <- 0;
  if Profile.on t.prof then Profile.take t.prof pcost t.cycle

let cat_other_idx = Categories.index Categories.C_other

(** Model a fresh allocation as nursery-resident: the lines are inserted
    into the D-caches without cost. (V8's new space is recycled by the
    scavenger and stays cache-resident in steady state; our bump allocator
    would otherwise make every allocation a cold DRAM miss.) *)
let prefill t ~addr ~bytes =
  let first = addr lsr 6 and last = (addr + bytes - 1) lsr 6 in
  for line = first to last do
    Cache.insert t.l1d (line lsl 6);
    Cache.insert t.l2 (line lsl 6)
  done

exception Cc_exception of cc_exn_info

(* --- the executor --- *)

let[@inline] alu_apply (a : Lir.alu) x y =
  match a with
  | Lir.Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Rem -> if y = 0 then 0 else Stdlib.( mod ) x y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 31)
  | Shr -> (x land 0xffff_ffff) lsr (y land 31)  (* JS >>> on uint32 *)
  | Sar -> x asr (y land 31)

let[@inline] cond_apply (c : Lir.cond) x y =
  match c with
  | Lir.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Bit_set -> x land y <> 0
  | Bit_clear -> x land y = 0

let[@inline] fcond_apply (c : Lir.fcond) (x : float) (y : float) =
  match c with
  | Lir.FEq -> x = y
  | FNe -> x <> y
  | FLt -> x < y
  | FLe -> x <= y
  | FGt -> x > y
  | FGe -> x >= y
  (* negated forms: true on NaN (unordered) *)
  | FNlt -> not (x < y)
  | FNle -> not (x <= y)
  | FNgt -> not (x > y)
  | FNge -> not (x >= y)

(* full-width shifts for tag arithmetic: [sc] 0 = lsl, 1 = lsr, else asr *)
let[@inline] sh64_apply sc x y =
  if sc = 0 then x lsl y else if sc = 1 then x lsr y else x asr y

(* the four two-operand FP operators, applied by {!falu} *)
type fop = Fadd | Fsub | Fmul | Fdiv

let[@inline] fop_apply op (x : float) y =
  match op with Fadd -> x +. y | Fsub -> x -. y | Fmul -> x *. y | Fdiv -> x /. y

let flat_lat = 3 (* FP add/sub/cvt latency *)
let fsqrt_lat = 25

(** Reconstruct the interpreter frame for a deopt of [f] and resume. *)
let do_deopt t host (f : Lir.func) regs fregs deopt_id ~result =
  let info = f.Lir.deopts.(deopt_id) in
  if Tce_obs.Trace.on t.trace then
    Tce_obs.Trace.emit t.trace
      (Tce_obs.Trace.Deopt
         {
           reason = Tce_attr.Reason.to_string info.Lir.reason;
           func = f.Lir.name;
           pc = info.Lir.bc_pc;
           classid = info.Lir.reason.Tce_attr.Reason.classid;
         });
  Tce_attr.Ledger.record_deopt t.attr ~fn:f.Lir.name ~reason:info.Lir.reason;
  host.on_deopt f.Lir.opt_id;
  t.clock_base_instrs <- t.clock_base_instrs + Costs.deopt_transition_instrs;
  if t.measuring then begin
    t.counters.deopts <- t.counters.deopts + 1;
    t.counters.baseline_instrs <-
      t.counters.baseline_instrs + Costs.deopt_transition_instrs;
    if Profile.on t.prof then
      Profile.base_extra t.prof Profile.extra_deopt_transition
        Costs.deopt_transition_instrs
  end;
  t.cycle <- t.cycle + t.cfg.deopt_penalty;
  (* Fault: the OSR transition itself fails once and is retried via the
     slow path — semantics preserved by construction, one extra frame
     reconstruction's worth of cost (timing-only, gracefully degraded). *)
  if
    Tce_fault.Injector.armed t.fault
    && Tce_fault.Injector.fire t.fault Tce_fault.Point.Osr_fail
  then begin
    t.clock_base_instrs <- t.clock_base_instrs + Costs.deopt_transition_instrs;
    if t.measuring then begin
      t.counters.baseline_instrs <-
        t.counters.baseline_instrs + Costs.deopt_transition_instrs;
      if Profile.on t.prof then
        Profile.base_extra t.prof Profile.extra_deopt_transition
          Costs.deopt_transition_instrs
    end;
    t.cycle <- t.cycle + t.cfg.deopt_penalty
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_deopt t.cycle;
  t.slots <- 0;
  let n = Array.length f.Lir.reprs in
  let vals =
    Array.init n (fun i ->
        match f.Lir.reprs.(i) with
        | Lir.R_tagged -> regs.(i)
        | Lir.R_double -> Heap.number t.heap fregs.(i))
  in
  let result =
    match result with
    | Some v -> Some ((match info.Lir.result_into with Some r -> r | None -> -1), v)
    | None -> None
  in
  host.resume ~opt_id:f.Lir.opt_id ~bc_pc:info.Lir.bc_pc ~regs:vals ~result

let do_store t d ~addr ~start ~word =
  (* store-buffer pressure: block when [outstanding_ldst] stores in flight *)
  if t.stq_len >= t.cfg.outstanding_ldst then begin
    let c = Array.unsafe_get t.stq_buf t.stq_head in
    t.stq_head <- (t.stq_head + 1) land t.stq_mask;
    t.stq_len <- t.stq_len - 1;
    if c > t.cycle then begin
      t.cycle <- c;
      t.slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_storeq t.cycle;
  Mem.store t.heap.Heap.mem addr word;
  let done_at = daccess t ~start:(imax d start) addr in
  Array.unsafe_set t.stq_buf ((t.stq_head + t.stq_len) land t.stq_mask) done_at;
  t.stq_len <- t.stq_len + 1;
  complete t (imax d start + 1)

let falu t d fregs fready fd fa fb op lat =
  let start = imax d (imax fready.(fa) fready.(fb)) in
  fregs.(fd) <- Fbits.canon (fop_apply op fregs.(fa) fregs.(fb));
  fready.(fd) <- start + lat;
  complete t fready.(fd)

let branch_resolve t ~opt_id ~pc ~start ~taken =
  let completion = start + 1 in
  complete t completion;
  let correct = Branch.record t.bp ~fn:opt_id ~pc ~taken in
  if not correct then begin
    let restart = completion + t.cfg.branch_mispredict_penalty in
    if restart > t.cycle then begin
      t.cycle <- restart;
      t.slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_branch t.cycle

let cc_request_tagged t ~classid ~line ~pos ~stored =
  (* With the mechanism on, regObjectClassId was set by the preceding
     movClassID. With it off, these opcodes are plain stores and only feed
     the measurement oracle — the ClassID is then computed functionally. *)
  let value_classid =
    if t.mechanism then t.reg_classid else Heap.classid_of t.heap stored
  in
  Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid;
  (* Untracked positions never reach the Class Cache: with a reduced Class
     List geometry the compiler never emits ProfileStore for them, but a
     stale optimized body may still execute one after a geometry change in
     tests — treat it as a plain store. *)
  if t.mechanism && Tce_core.Class_list.is_tracked t.cl ~pos then begin
    let r =
      Tce_core.Class_cache.access t.cc t.cl ~classid ~line ~pos ~value_classid
    in
    if not r.hit then begin
      let addr = Tce_core.Class_list.entry_addr t.cl ~classid ~line in
      let fin = daccess t ~start:t.cycle addr in
      t.cycle <- fin + t.cfg.class_cache_miss_penalty - t.cfg.l1_load_latency;
      t.slots <- 0;
      if Profile.on t.prof then
        Profile.take t.prof Profile.cost_ccmiss t.cycle
    end;
    if r.exn_raised then
      raise
        (Cc_exception
           {
             cc_classid = classid;
             cc_line = line;
             cc_pos = pos;
             cc_value_classid = value_classid;
             cc_victims = r.functions_to_deopt;
           })
  end

(* --- profiler labels --- *)

(* index 0 = a C_check whose kind slot is unattributed *)
let check_labels =
  Array.append [| "check" |]
    (Array.of_list (List.map Categories.check_kind_name Categories.all_check_kinds))

(** Profile label for one pre-decoded instruction: check kinds get their
    paper-figure name, everything else its {!Categories} bucket. *)
let label_of_meta m =
  if m land Predecode.meta_pseudo_bit <> 0 then "profile-op"
  else begin
    let ci = m land Predecode.meta_cat_mask in
    if ci = cat_check_idx then begin
      let slot = (m lsr Predecode.meta_check_shift) land 7 in
      if slot < Array.length check_labels then check_labels.(slot) else "check"
    end
    else
      match Categories.of_index ci with
      | Categories.C_taguntag -> "tags-untags"
      | C_math -> "math"
      | C_ccop -> "cc-op"
      | C_check | C_other -> "other"
  end

(** The profile accumulator for [pf]: find-or-register keyed by
    (opt_id, stream length) — see {!Tce_prof.Profile.register_opt} for why
    the length is part of the key. *)
let prof_acc prof (pf : Predecode.func) =
  let f = pf.Predecode.lf in
  let pcs = Array.length pf.Predecode.meta in
  match Profile.find_opt_acc prof ~id:f.Lir.opt_id ~pcs with
  | Some a -> a
  | None ->
    Profile.register_opt prof ~id:f.Lir.opt_id ~name:f.Lir.name
      ~labels:(Array.map label_of_meta pf.Predecode.meta)

(* --- superinstruction templates: fused-closure compilation --- *)

(* From here down — the template compiler and executor — array indexing
   compiles to unchecked accesses: {!Template.layout} validated every
   register operand against its register file and every control target
   against the stream, and a stream that fails validation never runs
   ({!install_template} raises {!Trap}), so the [a.(i)] bounds checks can
   never fire. *)
module Array = struct
  include Stdlib.Array

  (* re-declared as externals (not [let get = unsafe_get]) so the accesses
     stay compiler intrinsics instead of becoming out-of-line calls *)
  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

(* Terminator epilogues shared by the deopt-capable step closures —
   closures over nothing. *)

let t_osr_trace t (f : Lir.func) deopt_id =
  if Tce_obs.Trace.on t.trace then
    Tce_obs.Trace.emit t.trace
      (Tce_obs.Trace.Osr
         { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc })

let t_finish_deopt t env (f : Lir.func) deopt_id ~result =
  env.te_res <-
    do_deopt t env.te_host f env.te_regs env.te_fregs deopt_id ~result;
  env.te_running <- false

(* Retire-path invariant check (fault campaigns only): a special store that
   retires without raising re-validates this code's own speculation — the
   host's [is_invalidated] runs the engine's staleness check when an
   injector is armed, catching a dropped update or lost notification at the
   very store that broke the profile. Unfaulted, optimized code can never
   be invalidated on this path (exception delivery is synchronous), so the
   check is skipped and timing is untouched. *)
let t_post_store t env (f : Lir.func) deopt_id next =
  if
    Tce_fault.Injector.armed t.fault
    && env.te_host.is_invalidated f.Lir.opt_id
  then begin
    t_osr_trace t f deopt_id;
    t_finish_deopt t env f deopt_id ~result:None
  end
  else env.te_pc <- next

let t_handle_cc t env (f : Lir.func) deopt_id info next =
  if t.measuring then
    t.counters.cc_exception_deopts <- t.counters.cc_exception_deopts + 1;
  env.te_host.on_cc_exception info;
  if env.te_host.is_invalidated f.Lir.opt_id then begin
    t_osr_trace t f deopt_id;
    t_finish_deopt t env f deopt_id ~result:None
  end
  else env.te_pc <- next

(** Measurement pseudo-ops: zero timing cost, no dispatch, no fetch. *)
let compile_pseudo t (op : Predecode.pre) : tstep =
  match op with
  | Predecode.Pprofile (r, line, pos) ->
    fun env ->
      if t.measuring then begin
        let classid = Heap.classid_of t.heap env.te_regs.(r) in
        Counters.record_obj_load t.counters ~classid ~line ~pos
      end
  | Pprofile_store_r (r, line, pos, vr) ->
    fun env ->
      let regs = env.te_regs in
      let classid = Heap.classid_of t.heap regs.(r) in
      let value_classid = Heap.classid_of t.heap regs.(vr) in
      Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid
  | Pprofile_store_c (r, line, pos, c) ->
    fun env ->
      let classid = Heap.classid_of t.heap env.te_regs.(r) in
      Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid:c
  | _ -> assert false

(** Compile one non-pseudo instruction into a fused step closure. All
    operands, latencies, ALU/condition operators and the dispatch-port
    kind are captured immediates. Per-instruction counting is applied en
    bloc at block entry ({!Template.apply}), and only terminators publish
    a pc (straight-line steps run in array order). [pacc] is the profile
    accumulator of the stream, used only when the profiler is on. *)
let compile_body t (f : Lir.func) ~pacc ~pc ~m (op : Predecode.pre) : tstep =
  let mem = t.heap.Heap.mem in
  let opt_id = f.Lir.opt_id in
  let next = pc + 1 in
  let kind = (m lsr Predecode.meta_kind_shift) land 3 in
  let pon = Profile.on t.prof in
  match op with
  | Predecode.Pprofile _ | Pprofile_store_r _ | Pprofile_store_c _ ->
    assert false
  | Pmov_imm (r, i) ->
    fun env ->
      let d = dispatch_k t kind in
      env.te_regs.(r) <- i;
      env.te_ready.(r) <- d + 1;
      complete t (d + 1)
  | Pmov (rd, rs) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      regs.(rd) <- regs.(rs);
      ready.(rd) <- imax d ready.(rs) + 1;
      complete t ready.(rd)
  | Palu_r (a, lat, rd, rs, ro) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- alu_apply a regs.(rs) regs.(ro);
      ready.(rd) <- start + lat;
      complete t ready.(rd)
  | Palu_i (a, lat, rd, rs, i) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- alu_apply a regs.(rs) i;
      ready.(rd) <- start + lat;
      complete t ready.(rd)
  | Psh64_r (sc, rd, rs, ro) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- sh64_apply sc regs.(rs) (regs.(ro) land 63);
      ready.(rd) <- start + 1;
      complete t ready.(rd)
  | Psh64_i (sc, rd, rs, i) ->
    let y = i land 63 in
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- sh64_apply sc regs.(rs) y;
      ready.(rd) <- start + 1;
      complete t ready.(rd)
  | Palu32_r (a, lat, rd, rs, ro) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) regs.(ro));
      ready.(rd) <- start + lat;
      complete t ready.(rd)
  | Palu32_i (a, lat, rd, rs, i) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) i);
      ready.(rd) <- start + lat;
      complete t ready.(rd)
  | Paluov_r (a, lat, rd, rs, ro, target) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      let v = alu_apply a regs.(rs) regs.(ro) in
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      if Value.smi_fits (v asr 1) then begin
        regs.(rd) <- v;
        env.te_pc <- next
      end
      else env.te_pc <- target
  | Paluov_i (a, lat, rd, rs, i, target) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      let v = alu_apply a regs.(rs) i in
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      if Value.smi_fits (v asr 1) then begin
        regs.(rd) <- v;
        env.te_pc <- next
      end
      else env.te_pc <- target
  | Pload (rd, rb, off) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      let start = imax d ready.(rb) in
      regs.(rd) <- Mem.load mem addr;
      ready.(rd) <- daccess t ~start addr;
      complete t ready.(rd)
  | Pchecked_load (rd, rb, off, expected, deopt_id) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let base = regs.(rb) in
      let addr = base + off in
      let start = imax d ready.(rb) in
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      if Value.is_smi base || w <> expected then
        t_finish_deopt t env f deopt_id ~result:None
      else begin
        regs.(rd) <- Mem.load mem addr;
        ready.(rd) <- daccess t ~start addr;
        complete t ready.(rd);
        env.te_pc <- next
      end
  | Pload_idx (rd, rb, ri, off) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      let start = imax d (imax ready.(rb) ready.(ri)) in
      regs.(rd) <- Mem.load mem addr;
      ready.(rd) <- daccess t ~start addr;
      complete t ready.(rd)
  | Pfload (fd, rb, off) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      let addr = regs.(rb) + off in
      let start = imax d ready.(rb) in
      fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
      fready.(fd) <- daccess t ~start addr;
      complete t fready.(fd)
  | Pfload_idx (fd, rb, ri, off) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      let start = imax d (imax ready.(rb) ready.(ri)) in
      fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
      fready.(fd) <- daccess t ~start addr;
      complete t fready.(fd)
  | Pstore_r (rb, off, vr) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off)
        ~start:(imax ready.(vr) ready.(rb))
        ~word:regs.(vr)
  | Pstore_i (rb, off, i) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off) ~start:ready.(rb) ~word:i
  | Pstore_idx_r (rb, ri, off, vr) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
        ~word:regs.(vr)
  | Pstore_idx_i (rb, ri, off, i) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax ready.(rb) ready.(ri))
        ~word:i
  | Pfstore (rb, off, fv) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off)
        ~start:(imax env.te_fready.(fv) ready.(rb))
        ~word:(Fbits.of_float env.te_fregs.(fv))
  | Pfstore_idx (rb, ri, off, fv) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax env.te_fready.(fv) (imax ready.(rb) ready.(ri)))
        ~word:(Fbits.of_float env.te_fregs.(fv))
  | Pfmov (fd, fs) ->
    fun env ->
      let d = dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd)
  | Pfmov_imm (fd, x) ->
    fun env ->
      let d = dispatch_k t kind in
      env.te_fregs.(fd) <- x;
      env.te_fready.(fd) <- d + 1;
      complete t (d + 1)
  | Pfadd (fd, fa, fb) ->
    fun env ->
      let d = dispatch_k t kind in
      falu t d env.te_fregs env.te_fready fd fa fb Fadd 3
  | Pfsub (fd, fa, fb) ->
    fun env ->
      let d = dispatch_k t kind in
      falu t d env.te_fregs env.te_fready fd fa fb Fsub 3
  | Pfmul (fd, fa, fb) ->
    fun env ->
      let d = dispatch_k t kind in
      falu t d env.te_fregs env.te_fready fd fa fb Fmul 5
  | Pfdiv (fd, fa, fb) ->
    fun env ->
      let d = dispatch_k t kind in
      falu t d env.te_fregs env.te_fready fd fa fb Fdiv 20
  | Pfsqrt (fd, fs) ->
    fun env ->
      let d = dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- Fbits.canon (sqrt fregs.(fs));
      fready.(fd) <- imax d fready.(fs) + fsqrt_lat;
      complete t fready.(fd)
  | Pfneg (fd, fs) ->
    fun env ->
      let d = dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- -.fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd)
  | Pfabs (fd, fs) ->
    fun env ->
      let d = dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- Float.abs fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd)
  | Pcvtif (fd, rs) ->
    fun env ->
      let d = dispatch_k t kind in
      env.te_fregs.(fd) <- float_of_int env.te_regs.(rs);
      env.te_fready.(fd) <- imax d env.te_ready.(rs) + flat_lat;
      complete t env.te_fready.(fd)
  | Ptruncfi (rd, fs) ->
    fun env ->
      let d = dispatch_k t kind in
      env.te_regs.(rd) <- Value.js_to_int32_float env.te_fregs.(fs);
      env.te_ready.(rd) <- imax d env.te_fready.(fs) + flat_lat;
      complete t env.te_ready.(rd)
  | Pbranch_r (c, r, ro, target) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(r) ready.(ro)) in
      let taken = cond_apply c regs.(r) regs.(ro) in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      env.te_pc <- (if taken then target else next)
  | Pbranch_i (c, r, i, target) ->
    fun env ->
      let d = dispatch_k t kind in
      let start = imax d env.te_ready.(r) in
      let taken = cond_apply c env.te_regs.(r) i in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      env.te_pc <- (if taken then target else next)
  | Pfbranch (c, fa, fb, target) ->
    fun env ->
      let d = dispatch_k t kind in
      let fready = env.te_fready in
      let start = imax d (imax fready.(fa) fready.(fb)) in
      let taken = fcond_apply c env.te_fregs.(fa) env.te_fregs.(fb) in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      env.te_pc <- (if taken then target else next)
  | Pjmp target ->
    fun env ->
      let d = dispatch_k t kind in
      complete t (d + 1);
      env.te_pc <- target
  | Pcall_fn (callee, argr, rd, deopt_id, cinstrs) ->
    fun env ->
      ignore (dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      Array.iter
        (fun r -> if ready.(r) > t.cycle then t.cycle <- ready.(r))
        argr;
      t.slots <- 0;
      charge_rt_i t ~pcost:Profile.cost_call ~cat_idx:cat_other_idx
        ~instrs:cinstrs ~cycles:8;
      let argv = Array.map (fun r -> regs.(r)) argr in
      let v = env.te_host.call_fn callee argv in
      (* the callee (a nested run) moved the attribution site; any cycles
         this frame still books (deopt below, next dispatch) belong to
         this call site again *)
      if pon then Profile.set_site t.prof pacc pc;
      if env.te_host.is_invalidated opt_id then begin
        t_osr_trace t f deopt_id;
        t_finish_deopt t env f deopt_id ~result:(Some v)
      end
      else begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1;
        env.te_pc <- next
      end
  | Pcall_rt_chk (rt, argr, rd, deopt_id, cinstrs, ccycles) ->
    let cat_idx = m land Predecode.meta_cat_mask in
    fun env ->
      ignore (dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      Array.iter
        (fun r -> if ready.(r) > t.cycle then t.cycle <- ready.(r))
        argr;
      charge_rt_i t ~pcost:Profile.cost_rt ~cat_idx ~instrs:cinstrs
        ~cycles:ccycles;
      let argv = Array.map (fun r -> regs.(r)) argr in
      let v, _ = env.te_host.rt_call rt argv [||] in
      if rd >= 0 then begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1
      end;
      if env.te_host.is_invalidated opt_id then begin
        t_osr_trace t f deopt_id;
        t_finish_deopt t env f deopt_id
          ~result:(if rd >= 0 then Some v else None)
      end
      else env.te_pc <- next
  | Pcall_rt (rt, argr, fargr, rd, fd, cinstrs, ccycles) ->
    let cat_idx = m land Predecode.meta_cat_mask in
    fun env ->
      ignore (dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      Array.iter
        (fun r -> if ready.(r) > t.cycle then t.cycle <- ready.(r))
        argr;
      Array.iter
        (fun r -> if fready.(r) > t.cycle then t.cycle <- fready.(r))
        fargr;
      charge_rt_i t ~pcost:Profile.cost_rt ~cat_idx ~instrs:cinstrs
        ~cycles:ccycles;
      let argv = Array.map (fun r -> regs.(r)) argr in
      let fargv = Array.map (fun r -> fregs.(r)) fargr in
      let v, fv = env.te_host.rt_call rt argv fargv in
      if rd >= 0 then begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1
      end;
      if fd >= 0 then begin
        fregs.(fd) <- fv;
        fready.(fd) <- t.cycle + 1
      end;
      env.te_pc <- next
  | Pret r ->
    fun env ->
      let d = dispatch_k t kind in
      complete t (d + 1);
      env.te_res <- env.te_regs.(r);
      env.te_running <- false
  | Pdeopt deopt_id ->
    fun env ->
      ignore (dispatch_k t kind);
      t_finish_deopt t env f deopt_id ~result:None
  | Pmov_classid r ->
    fun env ->
      let d = dispatch_k t kind in
      let v = env.te_regs.(r) in
      if Value.is_smi v then begin
        t.reg_classid <- Tce_vm.Layout.smi_classid;
        complete t (d + 1)
      end
      else begin
        let addr = Value.ptr_addr v in
        t.reg_classid <- Heap.classid_of t.heap v;
        complete t (daccess t ~start:(imax d env.te_ready.(r)) addr)
      end
  | Pmov_classid_arr (k, r) ->
    fun env ->
      let d = dispatch_k t kind in
      let v = env.te_regs.(r) in
      if Value.is_smi v then begin
        t.reg_classid_arr.(k) <- Tce_vm.Layout.smi_classid;
        complete t (d + 1)
      end
      else begin
        let addr = Value.ptr_addr v in
        t.reg_classid_arr.(k) <- Heap.classid_of t.heap v;
        complete t (daccess t ~start:(imax d env.te_ready.(r)) addr)
      end
  | Pstore_cc_r (rb, off, vr, deopt_id) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      do_store t d ~addr ~start:(imax ready.(vr) ready.(rb)) ~word:regs.(vr);
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      let classid = Tce_vm.Layout.classid_of_class_word w in
      let line = Tce_vm.Layout.line_of_class_word w in
      let pos = Tce_vm.Layout.slot_pos_of_addr addr in
      (try
         cc_request_tagged t ~classid ~line ~pos ~stored:regs.(vr);
         t_post_store t env f deopt_id next
       with Cc_exception info -> t_handle_cc t env f deopt_id info next)
  | Pstore_cc_i (rb, off, i, deopt_id) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      do_store t d ~addr ~start:ready.(rb) ~word:i;
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      let classid = Tce_vm.Layout.classid_of_class_word w in
      let line = Tce_vm.Layout.line_of_class_word w in
      let pos = Tce_vm.Layout.slot_pos_of_addr addr in
      (try
         cc_request_tagged t ~classid ~line ~pos ~stored:i;
         t_post_store t env f deopt_id next
       with Cc_exception info -> t_handle_cc t env f deopt_id info next)
  | Pstore_cca_r (k, rb, ri, off, vr, deopt_id) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      do_store t d ~addr
        ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
        ~word:regs.(vr);
      let classid = t.reg_classid_arr.(k) in
      (try
         cc_request_tagged t ~classid ~line:0
           ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:regs.(vr);
         t_post_store t env f deopt_id next
       with Cc_exception info -> t_handle_cc t env f deopt_id info next)
  | Pstore_cca_i (k, rb, ri, off, i, deopt_id) ->
    fun env ->
      let d = dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      do_store t d ~addr ~start:(imax ready.(rb) ready.(ri)) ~word:i;
      let classid = t.reg_classid_arr.(k) in
      (try
         cc_request_tagged t ~classid ~line:0
           ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:i;
         t_post_store t env f deopt_id next
       with Cc_exception info -> t_handle_cc t env f deopt_id info next)

(** Compile one basic block into its fused step array. I-cache accounting
    is resolved statically within the block: after any executed non-pseudo
    instruction [last_iline] equals its line, so only the block's first
    non-pseudo step needs the dynamic line compare — later steps either
    provably stay on the same line (no fetch) or provably cross into a new
    one (unconditional fetch). Pseudo-ops never fetch.

    With the profiler on, each non-pseudo step first makes its pc the
    attribution site, so everything the clock does until the next step
    (the fetch included) books to (this function, this pc). The choice is
    made here, once per template: unprofiled steps carry no site code. *)
let compile_block t (f : Lir.func) (pf : Predecode.func) ~pacc
    (b : Template.block) : tblock =
  let ops = pf.Predecode.ops and meta = pf.Predecode.meta in
  let code_addr = f.Lir.code_addr in
  let prof = t.prof in
  let steps = ref [] in
  let prev_line = ref (-1) in
  for pc = b.Template.b_start to b.Template.b_start + b.Template.b_len - 1 do
    let m = meta.(pc) and op = ops.(pc) in
    if m land Predecode.meta_pseudo_bit <> 0 then
      steps := compile_pseudo t op :: !steps
    else begin
      let line = (code_addr + (4 * pc)) lsr 6 in
      let body = compile_body t f ~pacc ~pc ~m op in
      let step =
        if !prev_line < 0 then fun env ->
          if line <> t.last_iline then ifetch_slow t line;
          body env
        else if !prev_line = line then body
        else fun env ->
          ifetch_slow t line;
          body env
      in
      let step =
        if Profile.on prof then fun env ->
          Profile.set_site prof pacc pc;
          step env
        else step
      in
      prev_line := line;
      steps := step :: !steps
    end
  done;
  if not b.Template.b_terminated then begin
    let nxt = b.Template.b_start + b.Template.b_len in
    steps := (fun env -> env.te_pc <- nxt) :: !steps
  end;
  { tb_steps = Array.of_list (List.rev !steps); tb_sum = b.Template.b_sum }

(** Compile the full template for a decoded stream. A stream that
    {!Template.layout} rejects is an install error: it raises {!Trap}
    naming the function, its [opt_id] and the failed rule. *)
let compile_template t (f : Lir.func) (pf : Predecode.func) : template =
  match Template.layout pf with
  | Error reason ->
    raise
      (Trap
         (Printf.sprintf "cannot install %s (opt_id %d): %s" f.Lir.name
            f.Lir.opt_id reason))
  | Ok lay ->
    let pacc =
      if Profile.on t.prof then prof_acc t.prof pf else Profile.dummy_acc
    in
    {
      tp_blocks =
        Array.map (fun b -> compile_block t f pf ~pacc b) lay.Template.blocks;
      tp_block_of_pc = lay.Template.block_of_pc;
    }

(** Template for [f], compiling at most once per compilation — same keying
    discipline as {!install}: by [opt_id], with a physical-equality guard
    on the decoded stream covering id reuse. *)
let install_template t (f : Lir.func) (pf : Predecode.func) =
  match Hashtbl.find_opt t.tpl_cache f.Lir.opt_id with
  | Some (pf', Some tpl) when pf' == pf -> tpl
  | _ ->
    let tpl = compile_template t f pf in
    Hashtbl.replace t.tpl_cache f.Lir.opt_id (pf, Some tpl);
    tpl

(** Templated executor: enter the current leader's block, apply its counter
    summary en bloc, then run the fused steps in order; the terminator (or
    the synthetic fall-through step) publishes the next leader pc or
    finishes the run. *)
let run_templated t (host : host) (f : Lir.func) (tpl : template)
    (args : Value.t array) : Value.t =
  let nr = imax f.Lir.n_regs 1 in
  let nf = imax f.Lir.n_fregs 1 in
  (* Acquire a pooled environment (guest calls nest, so this is a free
     list, not a singleton). Pooled register files may be longer than this
     function needs; steps index below [n_regs]/[n_fregs] only, and the
     used prefix is re-initialized to exactly the fresh-allocation state. *)
  let env =
    match t.env_pool with
    | e :: rest ->
        t.env_pool <- rest;
        if Array.length e.te_regs < nr then begin
          e.te_regs <- Array.make nr 0;
          e.te_ready <- Array.make nr 0
        end;
        if Array.length e.te_fregs < nf then begin
          e.te_fregs <- Array.make nf 0.0;
          e.te_fready <- Array.make nf 0
        end;
        e.te_host <- host;
        e.te_pc <- 0;
        e.te_running <- true;
        e.te_res <- 0;
        e
    | [] ->
        {
          te_host = host;
          te_regs = Array.make nr 0;
          te_fregs = Array.make nf 0.0;
          te_ready = Array.make nr 0;
          te_fready = Array.make nf 0;
          te_pc = 0;
          te_running = true;
          te_res = 0;
        }
  in
  let regs = env.te_regs in
  Array.fill regs 0 nr 0;
  Array.fill env.te_fregs 0 nf 0.0;
  Array.fill env.te_ready 0 nr t.cycle;
  Array.fill env.te_fready 0 nf t.cycle;
  let nargs = min (Array.length args) f.Lir.n_regs in
  Array.blit args 0 regs 0 nargs;
  (* absent parameters read as null *)
  for i = nargs to min (Array.length f.Lir.reprs) f.Lir.n_regs - 1 do
    regs.(i) <- t.heap.Heap.null_v
  done;
  let blocks = tpl.tp_blocks and block_of_pc = tpl.tp_block_of_pc in
  let counters = t.counters in
  while env.te_running do
    let b = blocks.(block_of_pc.(env.te_pc)) in
    if t.measuring then Template.apply counters b.tb_sum;
    let steps = b.tb_steps in
    for i = 0 to Array.length steps - 1 do
      (Array.unsafe_get steps i) env
    done
  done;
  let res = env.te_res in
  t.env_pool <- env :: t.env_pool;
  res

(** Execute optimized code [f] on [args] = [this :: params], returning the
    function result (possibly via a deopt into the interpreter), on the
    fused template of its decoded stream.
    @raise Trap when the stream fails template validation. *)
let run t (host : host) (f : Lir.func) (args : Value.t array) : Value.t =
  run_templated t host f (install_template t f (install t f)) args
