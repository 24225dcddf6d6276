(** Deterministic simulated-time cycle-attribution profiler.

    The simulator's headline numbers (cycles, checks removed) say *how
    much* the mechanism saves; this module says *where the cycles go*. It
    attributes every simulated machine cycle to a (function x pc x cost
    kind) cell and every baseline instruction to a (function x bytecode pc)
    cell, using flat int arrays so the hot loop stays allocation-free
    (PR 5's invariant). Attribution is purely observational: it reads the
    machine's cycle clock and never writes simulator state, so simulated
    results are bit-identical with profiling on, off, or absent.

    {2 Watermark attribution}

    The machine's cycle clock is monotone non-decreasing. The profiler
    keeps a watermark [last]; at each cycle-advancing site the machine
    calls [take t cost now], attributing [now - last] to the current site
    under [cost] and advancing the watermark. Since the clock only moves
    at hooked sites, the sum over all cells equals the machine's total
    cycle count by construction — {!summarize} asserts exactly that
    (per-category reconciliation), so a missed hook is a loud failure,
    not a silently skewed profile.

    One profile instance serves exactly one engine/machine pair; the
    watermark is only meaningful against a single clock. *)

(** {1 Machine-side cost kinds} *)

val cost_dispatch : int
val cost_window : int
val cost_icache : int
val cost_storeq : int
val cost_branch : int
val cost_ccmiss : int
val cost_rt : int
val cost_call : int
val cost_deopt : int

(** {1 Baseline extras — analytic instruction charges with no bytecode pc} *)

val extra_transition : int
val extra_elem_grow : int
val extra_deopt_transition : int

(** {1 Profiles} *)

type acc
(** A flat per-function accumulator: machine accs hold one cycle cell per
    (pc, cost kind), baseline accs one instruction-count cell per pc. *)

type t

val null : t
(** The shared disabled profile: [on null = false], never mutated (all
    mutators are guarded by [on] at their call sites), so it is safe to
    share across engines and domains. *)

val create : unit -> t
(** A fresh enabled profile for one engine. *)

val on : t -> bool
(** Whether attribution is live. Every hot-path call below must be guarded
    by this at the call site; the registration functions additionally
    enforce it. *)

val dummy_acc : acc
(** Safe placeholder for hot-loop locals when profiling is off; never
    registered, so cycles must not be attributed while it is current. *)

val register_opt : t -> id:int -> name:string -> labels:string array -> acc
(** Accumulator for an optimized (machine-code) function: [id] is the
    opt_id, [labels] gives one instruction label per pc (length = stream
    length). Keyed by [(id, Array.length labels)] so re-registration
    returns the existing cells — ids reused with a different length (e.g.
    recompilation in unit tests) get distinct accumulators rather than
    clobbering accumulated counts, keeping reconciliation exact. *)

val register_base : t -> id:int -> name:string -> labels:string array -> acc
(** Same, for a baseline (bytecode) function: [id] is the function id,
    labels are bytecode mnemonics. Shadow (inlined) bytecode shares the
    original's id with a different code length; the pair key keeps both. *)

val find_opt_acc : t -> id:int -> pcs:int -> acc option
val find_base_acc : t -> id:int -> pcs:int -> acc option

(** {1 Hot-path attribution} — call only when [on t] *)

val set_site : t -> acc -> int -> unit
(** [set_site t acc pc] makes (acc, pc) the current machine site. *)

val take : t -> int -> int -> unit
(** [take t cost now] attributes [now - watermark] cycles to the current
    machine site under cost kind [cost] and moves the watermark to [now].
    No-op when the clock has not advanced. *)

val set_base_site : t -> acc -> int -> unit
(** [set_base_site t acc pc] makes (acc, pc) the current baseline site. *)

val base_add : t -> int -> unit
(** Attribute [n] baseline instructions to the current baseline site. *)

val base_extra : t -> int -> int -> unit
(** [base_extra t kind n] attributes [n] baseline instructions to extras
    bucket [kind] (a charge with no bytecode pc, e.g. a hidden-class
    transition slow path). *)

(** {1 Reading} *)

val cost_totals_named : t -> (string * int) array
(** Running machine-cycle totals per cost kind, in kind order — cheap
    enough to sample from an observability tick. *)

type site = { s_fn : string; s_pc : int; s_label : string; s_cycles : int }

type summary = {
  program : string;
  mechanism : bool;
  machine_cycles : int;
  baseline_instrs : int;
  baseline_cpi : float;
  total_cycles : float;
      (** [machine_cycles + baseline_instrs * baseline_cpi] — the same
          total the harness reports *)
  by_cost : (string * int) array;  (** machine cycles per cost kind *)
  by_label : (string * int) array;
      (** machine cycles per instruction label (check kinds, tags-untags,
          math, cc-op, other), descending *)
  base_by_label : (string * int) array;
      (** baseline instructions per bytecode mnemonic + named extras,
          descending *)
  top_sites : site list;  (** the 20 hottest (function, pc) machine sites *)
}

val summarize :
  t ->
  program:string ->
  mechanism:bool ->
  machine_cycles:int ->
  baseline_instrs:int ->
  baseline_cpi:float ->
  summary
(** Build the per-run summary. Fails (with the program name and both
    numbers) if the machine-side cells do not sum exactly to
    [machine_cycles], or the baseline cells + extras do not sum exactly to
    [baseline_instrs] — the per-category reconciliation invariant.
    [baseline_instrs] must come from a run measured whole (no counter
    resets). *)

(** {1 Collapsed-stack flamegraph export} *)

val folded : ?root:string -> baseline_cpi:float -> t -> string
(** Collapsed-stack lines ([frame;frame;... count], one per cell) loadable
    by speedscope and inferno/flamegraph.pl. Machine frames are
    [optimized;fn;pcN:label;cost] with exact cycle counts; baseline frames
    are [baseline;fn;pcN:label] with instruction counts scaled by
    [baseline_cpi] (rounded per cell, so the folded baseline total may
    differ from the analytic product by rounding). [root] prefixes every
    line with an extra frame (e.g. ["richards;on"]) so multiple runs
    concatenate into one flamegraph. Deterministic: ordered by function
    id, pc, cost. *)

val parse_folded : string -> ((string list * int) list, string) result
(** Parse collapsed-stack lines back into (frames, count) rows; used by
    the round-trip test and the differential reporter. *)

(** {1 Summary JSON} *)

val summary_to_json : summary -> Tce_obs.Json.t
val summary_of_json : Tce_obs.Json.t -> (summary, string) result
