(** Fault-injection campaign driver: the differential semantics oracle.

    A campaign runs a (workload × fault point) matrix, in this process or
    on supervised workers ([--shards N]). For each workload it first
    records the {e interpreter reference} ({!Tce_metrics.Harness.reference}:
    the JIT off, so every type check is executed and no optimizing-tier
    code runs) and a clean mechanism-on observation ({!prep}), whose run
    also counts each fault point's opportunities; then each matrix cell
    re-runs the workload with exactly one fault point armed (a singleton
    of the base spec) under a per-cell deterministic seed, and the
    observable results are compared against the reference. A cell whose
    rule provably cannot fire within the clean run's opportunities
    ({!Tce_fault.Injector.quiet}) is [Not_exercised] without that re-run:
    it would repeat the clean run. Every observation is one
    {!Tce_metrics.Harness.run} under the cell's config, the same execution
    a roster row comes from; the reference is an unmeasured interpreter
    run, so a campaign times one simulation per workload before its cells
    and one per cell whose rule can fire. The observable folds the
    printed output with the result of {e every} bench() iteration, so a
    wrong answer anywhere in the run is caught, not just in the measured
    iteration.

    Outcome taxonomy (also documented in lib/fault/README.md):
    - [Wrong] — the observable result differed from the reference, or the
      engine crashed. Zero tolerance: any [Wrong] cell fails the campaign.
    - [Detected_recovered] — the retire-path invariant check caught the
      inconsistency ([Fault_detected] events, [detections > 0]) and the
      engine fell back to fully-checked execution; results match.
    - [Degraded] — results match with no detection needed, but the fault
      cost something (extra deopts / Class Cache exceptions / cycles).
    - [Masked] — the fault fired yet changed nothing measurable.
    - [Not_exercised] — the rule never fired: its point had no
      opportunity, or none of its seeded draws hit. Decided from the
      clean run's opportunity counts, with no faulted run.

    Every cell records its injector seed, a function of the campaign seed
    and the cell's identity only, so any outcome is replayable on its own:
    [bench/main.exe -- faults --fault-seed CAMPAIGN_SEED --fault-spec SPEC
    WORKLOAD] reruns exactly that cell, and [bench/main.exe -- run FILE
    --fault-spec SPEC --fault-seed SEED] arms the same injector on a
    program file. *)

val latest_path : string  (** ["FAULTS_latest.json"] *)

val campaigns_dir : string  (** ["results/campaigns"] *)

val default_seed : int

type outcome =
  | Wrong
  | Detected_recovered
  | Degraded
  | Masked
  | Not_exercised

type cell = {
  workload : string;
  point : string;  (** fault-point CLI name, {!Tce_fault.Point.name} *)
  spec : string;  (** the singleton spec the cell ran under *)
  seed : int;  (** injector seed (replay: [--fault-spec spec --fault-seed seed]) *)
  fires : int;
  detections : int;
  lost_victims : int;
  delivered_late : int;
  deopts_delta : int;  (** vs the clean mechanism-on run *)
  cycles_delta : float;  (** vs the clean mechanism-on run *)
  outcome : outcome;
  detail : string;  (** non-empty for [Wrong]: what went wrong *)
}

type t = {
  campaign_seed : int;
  spec : string;  (** the base spec the matrix was derived from *)
  git_sha : string;
  created_utc : string;
  jobs : int;  (** 1 for new runs (older documents may say more); kept in the format *)
  shards : int;  (** worker processes the matrix was split across (1 = in-process) *)
  host_wall_seconds : float;
  cells : cell list;
  quarantined : Supervise.quarantined list;
      (** matrix cells the supervisor excluded after repeated worker
          kills; absent from [cells]. Omitted from the JSON when empty, so
          pre-supervision documents round-trip unchanged. *)
  resumed_rows : int list;
      (** matrix indices replayed from a [--resume] journal (provenance
          only; also omitted from the JSON when empty) *)
}

(** One guest-observable summary of a run: printed output + the display
    string of every bench() iteration, with the whole-run counters the
    classifier compares. *)
type observation = {
  observable : string;
  cycles : float;
  deopts : int;
  cc_exceptions : int;
}

(** [Harness.run ~config w] projected onto an observation: its
    [observable], [whole_cycles], [whole_deopts] and
    [whole_cc_exceptions]. No engine code of its own. *)
val observe : config:Tce_engine.Engine.config -> Tce_workloads.Workload.t ->
  observation

(** What a workload's cells share: the interpreter reference, the clean
    mechanism-on observation and, per fault point, the opportunities the
    clean run offered. *)
type prepared = {
  reference : string;
  clean : observation;
  opportunities : Tce_fault.Point.t -> int;
}

(** Prepare workload [w]'s cells: {!Tce_metrics.Harness.reference}, then
    one clean mechanism-on run armed at every point with a rule that never
    fires ([point@max_int]). That run executes like any cell's faulted run
    before the latter's first fire, retire-path detectors included, and
    counts each point's opportunities; a cell whose rule
    {!Tce_fault.Injector.quiet} proves cannot fire within them is
    [Not_exercised] without a faulted run.
    @raise Failure naming [w] when the clean run's observable differs from
    the reference, or when it records a fire or a detection. *)
val prep : Tce_workloads.Workload.t -> prepared

(** The deterministic injector seed of cell [(workload, point)] — a pure
    function of the campaign seed and the cell identity, independent of
    scheduling. *)
val cell_seed : campaign_seed:int -> workload:string -> point:string -> int

(** The canonical campaign matrix: workload-major, rule-minor. Workers and
    the in-process mode both enumerate cells in this order, so a cell's
    matrix index identifies it across the process boundary. *)
val matrix :
  spec:Tce_fault.Spec.t ->
  Tce_workloads.Workload.t list ->
  (Tce_workloads.Workload.t * Tce_fault.Spec.rule) list

(** A cell's payload in its [row] document ({!Shard.row_to_json}). *)
val codec : cell Shard.codec

(** {!matrix} as a {!Shard.cells} matrix, worker subcommand [faults]. Each
    process runs a workload's {!prep} once, on the first of its cells that
    needs it. Cells are keyed by {!Cache.fault_key}. *)
val cells :
  spec:Tce_fault.Spec.t ->
  seed:int ->
  Tce_workloads.Workload.t list ->
  cell Shard.cells

(** Run the full matrix: one cell per (workload, rule of [spec]),
    through {!Shard.run} over {!cells}. Default [spec] is
    {!Tce_fault.Spec.default} (every point armed), default seed
    {!default_seed}. [shards] defaults to 1: serial, in this process.
    With [shards > 1] or [resume], the supervised mode runs, journaled to
    [journal_path] (default {!Store.faults_journal_path}); [worker_args]
    must then carry the [--fault-seed]/[--fault-spec] the workers need to
    rebuild the same matrix. Cell seeds are pure functions of cell
    identity, so both modes give the same cells. With [cache], cells are
    pre-resolved against the content-addressed cell cache
    ({!Cache.fault_key}); a workload all of whose cells hit gets no
    reference or clean run, so a fully cached campaign performs
    zero simulations and starts no worker. [jobs] stays only for callers
    that still pass [~jobs:1]; any other value raises [Invalid_argument]
    ({!Shard.serial_jobs}).
    @raise Failure when supervision fails unrecoverably, when the merge
    is incomplete (a missing cell that is not quarantined), or when the
    [resume] journal is not this matrix's: its header pins the cells'
    keys, so another seed's or spec's journal is refused
    ({!Shard.run}). *)
val run :
  ?exe:string ->
  ?spawn:Supervise.spawn ->
  ?log_dir:string ->
  ?supervise:Supervise.config ->
  ?journal_path:string ->
  ?resume:string ->
  ?chaos:Supervise.Chaos.mode * int ->
  ?cache:Cache.t ->
  ?spec:Tce_fault.Spec.t ->
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?worker_args:string list ->
  Tce_workloads.Workload.t list ->
  t

(** {!run} under its earlier name. *)
val parent :
  ?exe:string ->
  ?spawn:Supervise.spawn ->
  ?log_dir:string ->
  ?supervise:Supervise.config ->
  ?journal_path:string ->
  ?resume:string ->
  ?chaos:Supervise.Chaos.mode * int ->
  ?cache:Cache.t ->
  ?spec:Tce_fault.Spec.t ->
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?worker_args:string list ->
  Tce_workloads.Workload.t list ->
  t

(** The cells that produced a silent wrong answer or a crash. *)
val wrong : t -> cell list

val to_json : t -> Tce_obs.Json.t
val of_json : Tce_obs.Json.t -> (t, string) result

(** Write [latest] (default {!latest_path}) and an immutable copy under
    [dir] (default {!campaigns_dir}). Returns the copy's path, or [None]
    when [dir] is [""], which turns the copy off. *)
val save : ?latest:string -> ?dir:string -> t -> string option

(** Read a saved campaign ({!Store.read_json}: errors name the path). *)
val load : string -> (t, string) result

(** The cells of [t] that differ from the cell of the same (workload,
    point) in [reference], or that [reference] lacks, one line each; a
    differing cell's line names each differing field with its reference
    and current value ({!Tce_obs.Json.diff}). A
    rerun under the same spec and seed gives none: a cell is a pure
    function of its workload, rule and seed. *)
val diff_cells : reference:t -> t -> string list

(** Per-point outcome table, recovery provenance (resumed/quarantined
    cells) and the list of [Wrong] cells, to stdout. *)
val print_summary : t -> unit

(** 0 when no cell is [Wrong], else 1. With [strict] (the [--strict]
    flag), quarantined cells also fail the campaign. *)
val exit_code : ?strict:bool -> t -> int
