(** Cycle-level execution of optimized (LIR) code: 4-wide in-order-dispatch /
    out-of-order-completion scoreboard with a bounded window, load/store
    ports, L1I/L1D/L2, D/I-TLBs, branch prediction, MSHR fill merging, and
    the Class Cache — parameters from {!Config} (the paper's Table 2).
    A research-grade MARSS substitute (DESIGN.md §2).

    The executor runs the {!Predecode} stream (decoded once per installed
    compilation), and the run loop is allocation-free — see
    lib/machine/README.md. *)

(** An optimized-code stream the machine cannot execute: raised by {!run}
    when {!Template.layout} rejects the stream, naming the function, its
    [opt_id] and the failed rule. *)
exception Trap of string

(** A misspeculation exception with the faulting-store context attached —
    what broke, where, and who has to deopt (the attribution ledger's
    causal-chain anchor). *)
type cc_exn_info = {
  cc_classid : int;
  cc_line : int;
  cc_pos : int;
  cc_value_classid : int;
  cc_victims : int list;  (** opt_ids from the slot's FunctionList *)
}

(** Callbacks into the engine (tier driver). *)
type host = {
  call_fn : int -> Tce_vm.Value.t array -> Tce_vm.Value.t;
      (** call guest function [fn_id] with [this :: args] *)
  resume :
    opt_id:int -> bc_pc:int -> regs:Tce_vm.Value.t array ->
    result:(int * Tce_vm.Value.t) option -> Tce_vm.Value.t;
      (** deoptimization: resume the interpreter on the code's (shadow)
          bytecode *)
  rt_call :
    Tce_jit.Lir.rt -> Tce_vm.Value.t array -> float array ->
    Tce_vm.Value.t * float;
  on_cc_exception : cc_exn_info -> unit;
      (** misspeculation exception: invalidate the victim opt_ids *)
  on_deopt : int -> unit;  (** a check failed in this opt_id *)
  is_invalidated : int -> bool;
}

(** A compiled superinstruction template: fused straight-line closures per
    basic block (see lib/machine/README.md, "Template fusion invariants").
    With the profiler on, each step also sets its attribution site.
    Abstract — built and consumed inside {!run}. *)
type template

(** A pooled per-run template environment (register files and control
    state). Abstract — recycled across guest calls via [env_pool]. *)
type tenv

type t = {
  cfg : Config.t;
  heap : Tce_vm.Heap.t;
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
  mechanism : bool;
  mutable cycle : int;  (** monotonic dispatch clock *)
  mutable clock_base_instrs : int;
      (** baseline-tier instructions since creation, counted regardless of
          [measuring] — the measurement-independent input to the engine's
          observability/backoff clock *)
  mutable slots : int;
  mutable load_slots : int;
  mutable store_slots : int;
  win_buf : int array;  (** in-flight completion times (ring buffer) *)
  win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  stq_buf : int array;  (** in-flight store completion times (ring buffer) *)
  stq_mask : int;
  mutable stq_head : int;
  mutable stq_len : int;
  mutable last_iline : int;
  fills : Tce_support.Int_table.t;
      (** in-flight line fills (MSHR merging); 0 = none *)
  pre_cache : (int, Predecode.func) Hashtbl.t;
      (** decoded streams keyed by [opt_id] *)
  mutable measuring : bool;
  trace : Tce_obs.Trace.t;
      (** observability sink (deopt / OSR events; never affects timing) *)
  fault : Tce_fault.Injector.t;
      (** fault injector ({!Tce_fault.Injector.null} = disarmed): OSR-fail
          injection and retire-path re-validation of special stores *)
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): typed
          deopt reasons; never affects timing *)
  prof : Tce_prof.Profile.t;
      (** cycle-attribution profiler ({!Tce_prof.Profile.null} = disabled):
          every clock-advancing site reports its delta to the current
          (function, pc) site; reads timing state, never writes it, so
          simulated cycles are bit-identical with it on or off *)
  mutable reg_classid : int;  (** regObjectClassId (paper §4.2.1.2) *)
  reg_classid_arr : int array;  (** regArrayObjectClassId 0-3 *)
  tpl_cache : (int, Predecode.func * template option) Hashtbl.t;
      (** compiled templates keyed like [pre_cache]; always [Some] — a
          stream {!Template.layout} rejects raises {!Trap} and is never
          cached *)
  mutable env_pool : tenv list;
      (** free list of per-run template environments (register-file reuse) *)
}

val create :
  ?cfg:Config.t -> ?mechanism:bool -> ?trace:Tce_obs.Trace.t ->
  ?fault:Tce_fault.Injector.t -> ?attr:Tce_attr.Ledger.t ->
  ?prof:Tce_prof.Profile.t -> heap:Tce_vm.Heap.t ->
  cc:Tce_core.Class_cache.t -> cl:Tce_core.Class_list.t ->
  oracle:Tce_core.Oracle.t -> counters:Counters.t -> unit -> t

(** Pre-decode [f] into the machine's stream cache (idempotent; keyed by
    [opt_id] with a physical-equality guard). {!run} installs lazily, so
    calling this at compile-install time just moves the decode cost off the
    first execution. *)
val install : t -> Tce_jit.Lir.func -> Predecode.func

(** Model a fresh allocation as nursery-resident (DESIGN.md §5b): insert its
    lines into the D-caches without cost. *)
val prefill : t -> addr:int -> bytes:int -> unit

(** Execute optimized code on [this :: params], returning the function
    result (possibly produced by a deoptimized continuation). The stream
    runs on its fused template, compiled on first use.
    @raise Trap when {!Template.layout} rejects the stream. *)
val run : t -> host -> Tce_jit.Lir.func -> Tce_vm.Value.t array -> Tce_vm.Value.t
