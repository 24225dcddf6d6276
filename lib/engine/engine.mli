(** The two-tier engine (the V8 stand-in): a baseline interpreter tier with
    real inline caches, and an optimizing tier compiled by {!Tce_jit.Opt}
    and executed on the cycle-level machine. Deoptimization, on-stack
    replacement and Class Cache misspeculation exceptions transfer execution
    back to the interpreter mid-function. *)

exception Engine_error of string

(** Deopt-storm mitigation: per-function exponential re-speculation backoff
    with a decaying deopt budget. Replaces (and subsumes) the former
    [max_deopts = 12] permanent disable and the hard-coded
    [deopt_hits > 4] instance limit. *)
type backoff = {
  instance_deopt_limit : int;
      (** deopts of one code instance before it is discarded and recompiled
          against fresher feedback (default 4) *)
  storm_threshold : int;
      (** decayed per-function deopt budget beyond which re-speculation
          enters backoff (default 12; below it behaviour is exactly the
          pre-backoff engine) *)
  base_cooldown_cycles : int;  (** first cooldown, simulated cycles (20_000) *)
  max_backoff_exponent : int;
      (** cooldown cap = [base_cooldown_cycles * 2^max] (default 8) *)
  decay_cycles : int;
      (** one past deopt / backoff level forgiven per this many quiet
          simulated cycles (default 50_000); 0 disables decay *)
}

type config = {
  jit : bool;  (** false: pure interpreter (differential testing) *)
  mechanism : bool;  (** the paper's Class Cache mechanism *)
  hoisting : bool;  (** movClassIDArray loop hoisting (paper §4.2.1.3) *)
  checked_load : bool;  (** Checked Load baseline instead of the mechanism *)
  hot_call_count : int;
  hot_backedge_count : int;
  backoff : backoff;  (** deopt-storm mitigation *)
  mach_cfg : Tce_machine.Config.t;
  cc_config : Tce_core.Class_cache.config;
  cl_config : Tce_core.Class_list.config;
      (** Class List geometry (tracked positions per line); part of the
          benchmark config hash like [cc_config] *)
  seed : int;
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
          (the zero-cost default: no attribution, identical cycles). One
          profile instance serves one engine. *)
}

val default_config : config

(** [c] with every field that a run with [c.mechanism] cannot read reset
    to {!default_config}'s, so two configs with the same effective config
    simulate bit-identically. A mechanism-off run reads no [cc_config],
    [cl_config] or [hoisting]; a mechanism-on run reads no
    [checked_load]. *)
val effective_config : config -> config

type t = {
  cfg : config;
  heap : Tce_vm.Heap.t;
  prog : Tce_jit.Bytecode.program;
  cl : Tce_core.Class_list.t;
  cc : Tce_core.Class_cache.t;
  oracle : Tce_core.Oracle.t;
  counters : Tce_machine.Counters.t;
  mach : Tce_machine.Machine.t;
  io : Runtime.io;
  opt_table : (int, Tce_jit.Lir.func) Hashtbl.t;
  shadow_table : (int, Tce_jit.Bytecode.func) Hashtbl.t;
  mutable next_opt_id : int;
  mutable next_code_addr : int;
  mutable host : Tce_machine.Machine.host option;
  mutable depth : int;
  globals_base : int;
  snap : Tce_obs.Snapshot.t;  (** periodic counter sampler *)
  obs_clock : unit -> int;  (** deterministic trace clock *)
  mutable regs_pool : Tce_vm.Value.t array list;
      (** free list of interpreter register files *)
  binop_cell : Tce_jit.Feedback.binop_fb ref;
      (** reusable out-cell for {!Runtime.eval_binop_cell} *)
}

val create : ?config:config -> Tce_jit.Bytecode.program -> t
val of_source : ?config:config -> string -> t

(** Everything the program [print]ed so far. *)
val output : t -> string

(* --- measurement control --- *)

val set_measuring : t -> bool -> unit

(** Reset counters and cache/TLB/predictor statistics (contents persist:
    steady-state measurement). *)
val reset_measurement : t -> unit

val measuring : t -> bool

(* --- execution --- *)

(** Execute the program's top level. *)
val run_main : t -> Tce_vm.Value.t

(** Call a top-level function by name (steady-state iteration driver).
    @raise Engine_error when no such function exists. *)
val call_by_name : t -> string -> Tce_vm.Value.t array -> Tce_vm.Value.t

(* --- metrics --- *)

(** Monotonic simulated cycle clock of the optimized tier. *)
val opt_cycles : t -> int

(** Analytic cycles of the baseline tier. *)
val baseline_cycles : t -> float

(* --- observability --- *)

(** The engine's trace (from the config). *)
val trace : t -> Tce_obs.Trace.t
