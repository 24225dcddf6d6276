(** Versioned benchmark records — the unit stored by {!Store} and compared
    by {!Gate}. See [lib/runner/README.md] for the JSON schema. *)

(** Per-workload result of one mechanism-off / mechanism-on pair. Every
    field except [wall_seconds] is computed by the deterministic simulator
    and is bit-identical across runs (serial or parallel). *)
type workload = {
  name : string;
  suite : string;
  iterations : int;
  checksum : string;  (** display string of the measured bench() value *)
  cycles_off : float;  (** steady-state simulated cycles, mechanism off *)
  cycles_on : float;  (** steady-state simulated cycles, mechanism on *)
  whole_cycles_off : float;
  whole_cycles_on : float;
  checks_off : int;  (** dynamic check instructions, mechanism off *)
  checks_on : int;
  checks_by_kind : (string * int * int) list;
      (** per-{!Tce_jit.Categories.check_kind} composition as
          [(kind, off, on)] dynamic counts, in kind order; each column sums
          to [checks_off] / [checks_on] exactly (asserted in {!of_pair}).
          Empty when decoded from a schema-v1 document. *)
  guards_off : int;  (** checks guarding object-load results (Fig. 2) *)
  guards_on : int;
  deopts_on : int;
  cc_exceptions_on : int;
  cc_accesses_on : int;
  cc_hit_rate_on : float;
  speedup_pct : float;  (** cycle improvement of on vs off (paper Fig. 8) *)
  check_removal_pct : float;  (** % of dynamic checks elided by the mechanism *)
  wall_seconds : float;
      (** host wall clock for the off+on pair — informational, host-dependent *)
  wall_seconds_off : float;
      (** host wall clock of the mechanism-off side alone (schema ≥ 3;
          0.0 when decoded from an older document) *)
  wall_seconds_on : float;  (** ditto, mechanism-on side (schema ≥ 3) *)
}

(** The inputs of the paper's roster figures for one row
    ({!Tce_metrics.Harness.Figures}): what the figures read and the row
    lacks. *)
type figures = Tce_metrics.Harness.Figures.t

(** One cell of the roster or sweep matrix as the runner computes, caches
    and journals it: the row and its figure inputs. The runner always
    fills the block; it is [None] only when decoded from a row written
    before the block existed — the committed baseline among them. The
    block is not part of {!workload} because the benchmark under
    [perfbench/] builds {!workload} values field by field. *)
type cell = workload * figures option

(** The figure inputs of the cells that carry them, keyed by workload
    name, in cell order — the form {!run} keeps them in. *)
val figures_of_cells : cell list -> (string * figures) list

(** One runner invocation: provenance plus the per-workload records. *)
type run = {
  git_sha : string;
  config_hash : string;  (** digest of the simulated-core + engine config *)
  created_utc : string;
  jobs : int;  (** 1 for new runs (older documents may say more); kept in the format *)
  shards : int;
      (** worker processes the run was split across (1 = in-process run;
          documents written before the field existed decode as 1) *)
  host_wall_seconds : float;
  workloads : workload list;
  quarantined : Supervise.quarantined list;
      (** poison cells the supervisor excluded after repeated worker
          kills, in roster order; their workloads are absent from
          [workloads]. Empty for clean runs — the field is omitted from
          the JSON then, so pre-supervision documents round-trip
          unchanged. *)
  resumed_rows : int list;
      (** roster indices replayed from a [--resume] journal instead of
          re-executed (provenance only — the rows are identical either
          way, and {!normalize_run} clears this) *)
  cache_hits : int;
      (** rows served from the content-addressed cell cache ({!Cache}).
          Provenance only — a cached row is byte-identical to a fresh
          one, but the count depends on local cache state, so
          {!normalize_run} clears it. Omitted from the JSON (with
          [cache_misses]) when both are zero, so uncached documents keep
          their old bytes. *)
  cache_misses : int;
      (** rows that had to be simulated despite the cache being on *)
  figures : (string * figures) list;
      (** the figure inputs of the rows that carry them, keyed by workload
          name. Serialized inside each row (its ["figures"] member);
          simulated data, so {!normalize_run} keeps it. *)
}

(** Build a record from a measured off/on pair; [wall_off]/[wall_on] are
    the host wall-clock seconds each side took ([wall_seconds] is their
    sum).
    @raise Failure when the per-kind check attribution does not reconcile
    exactly with the [C_check] category counters (a compiler bug). *)
val of_pair :
  wall_off:float ->
  wall_on:float ->
  Tce_metrics.Harness.result ->
  Tce_metrics.Harness.result ->
  workload

(** Equality over the simulated fields only (ignores every wall-clock
    field) — the property the parallel runner asserts against a serial
    run. *)
val equal_deterministic : workload -> workload -> bool

(** The simulated fields in which [cur] differs from [base], one line
    each ([deopts_on: base 3, current 8]; a per-kind count reads
    [checks_by_kind[2].on]), from {!Tce_obs.Json.diff} of the two rows'
    JSON. Empty when {!equal_deterministic} holds. *)
val diff : workload -> workload -> string list

val workload_to_json : workload -> Tce_obs.Json.t
val workload_of_json : Tce_obs.Json.t -> (workload, string) result

(** A cell is its row's JSON object plus, when present, a ["figures"]
    member. {!workload_of_json} ignores that member; {!cell_of_json}
    decodes a row without it to [None]. *)
val cell_to_json : cell -> Tce_obs.Json.t

val cell_of_json : Tce_obs.Json.t -> (cell, string) result

(** Wrap / unwrap a run in the versioned {!Tce_obs.Export} envelope
    (kind ["bench-run"]). *)
val run_to_json : run -> Tce_obs.Json.t

val run_of_json : Tce_obs.Json.t -> (run, string) result

(** The row with its host wall clocks zeroed — the form rows take inside
    the cell cache (pure simulated data). *)
val zero_walls : workload -> workload

(** Strip every host-dependent field (timestamp, wall clocks, job/shard
    counts and resume provenance are all forced to fixed values) so two
    runs of the same simulator state serialize byte-identically — the
    property CI asserts between a serial run and a sharded (or
    chaos-recovered, or journal-resumed) one. Simulated numbers,
    quarantined cells and provenance that must match anyway (git SHA,
    config hash) are kept. *)
val normalize_run : run -> run
