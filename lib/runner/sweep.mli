(** Design-space sweep: explore the Class Cache / Class List geometry
    space and report the Pareto frontier.

    A sweep spec names one value list per hardware axis:

    {v sweep "cc.entries=32,64,128,256 cc.ways=1,2,4 cl.size=4,8" v}

    - [cc.entries] — Class Cache entry count;
    - [cc.ways] — Class Cache associativity;
    - [cl.size] — tracked Class List positions (1..7).

    Clauses are space-separated, values comma-separated positive
    integers; an absent axis sweeps only its paper-default value, an
    unknown key or an empty value list is an error. The spec expands to a
    point grid (combinations with no whole number of sets — entries not a
    multiple of ways — are skipped and counted), and {!run} executes the
    (point × workload) cell matrix in this process or across supervised
    worker processes (inheriting retry, quarantine and journal/resume
    from {!Supervise}). Each cell is one
    standard benchmark pair under that point's {!config_of_point}, so
    cells flow through the content-addressed cell cache ({!Cache})
    unchanged — a repeated sweep performs zero simulations, and changing
    one axis value re-simulates only that axis's cells. The
    mechanism-off half of a pair does not depend on the geometry, so the
    pair driver ({!Runner.pair_cells}) simulates it once per workload,
    not once per point.

    Reports rank points on three objectives: simulated mechanism-on
    cycles (minimize), dynamic check removal (maximize) and a geometry
    cost proxy in bytes of SRAM (minimize). *)

type point = { entries : int; ways : int; cl_size : int }

val default_point : point
(** The paper's Table 2 geometry: 128 entries, 2 ways, Class List 7. *)

val point_name : point -> string
(** Canonical rendering, axis keys sorted ([cc.entries=128 cc.ways=2
    cl.size=7]). *)

val config_of_point : point -> Tce_engine.Engine.config
(** {!Tce_engine.Engine.default_config} with this point's geometry. *)

(** A parsed spec: sorted, deduplicated values per axis. *)
type axes = { ax_entries : int list; ax_ways : int list; ax_sizes : int list }

val parse_spec : string -> (axes, string) result

val axes_to_string : axes -> string
(** Canonical spec string; [parse_spec] of it yields the same axes. *)

val expand : axes -> point list * int
(** The point grid (entries-major over sorted values) and the number of
    invalid combinations skipped. *)

val matrix :
  point list -> Tce_workloads.Workload.t list ->
  (point * Tce_workloads.Workload.t) list
(** The canonical cell matrix: point-major, workload-minor. Workers and
    the driver both enumerate cells in this order, so a cell's matrix
    index identifies it across the process boundary. *)

(** One executed sweep. [cells] is in matrix order with quarantined cells
    absent; [cache_hits]/[cache_misses] are this invocation's counts. *)
type t = {
  spec : string;
  git_sha : string;
  created_utc : string;
  jobs : int;  (** 1 for new runs (older documents may say more); kept in the format *)
  shards : int;
  host_wall_seconds : float;
  cache_hits : int;
  cache_misses : int;
  skipped_points : int;
  roster : string list;
  points : point list;
  cells : (point * Record.workload) list;
  quarantined : Supervise.quarantined list;
  resumed_rows : int list;
}

val equal : t -> t -> bool
(** Structural equality over spec, roster, points and cells (full
    {!Record.equal_workload} per row). *)

val normalize : t -> t
(** Force every host-dependent field (timestamp, wall clocks, job/shard
    counts, cache and resume provenance) to a fixed value — two sweeps of
    the same simulator state then serialize byte-identically
    ([--deterministic]). *)

val cells : axes:axes -> Tce_workloads.Workload.t list ->
  Record.cell Shard.cells
(** {!matrix} as {!Runner.pair_cells} over [(config_of_point p, w)],
    worker subcommand [sweep SPEC NAMES…] with the canonical spec, so a
    worker re-expands the same grid, and cells named [workload@point].
    The mechanism-off half does not read the geometry, so a process
    simulates it once per workload; a cell that reuses it reports
    [wall_seconds_off] 0. The default point's cells share their
    cell-cache entries with the roster's ({!Runner.bench_cells}), so both
    write the figure block; {!t} keeps only the rows.
    @raise Failure when the grid is empty, or from a cell when the two
    halves' checksums differ. *)

val run :
  ?exe:string ->
  ?spawn:Supervise.spawn ->
  ?log_dir:string ->
  ?supervise:Supervise.config ->
  ?journal_path:string ->
  ?resume:string ->
  ?cache:Cache.t ->
  ?jobs:int ->
  ?shards:int ->
  ?worker_args:string list ->
  axes:axes ->
  Tce_workloads.Workload.t list ->
  t
(** Execute the matrix through {!Shard.run} over {!cells}. [shards]
    defaults to 1: serial, in this process. With [shards > 1] or
    [resume], the supervised mode runs, journaled to [journal_path]
    (default {!Store.sweep_journal_path}). [jobs] stays only for callers
    that still pass [~jobs:1]; any other value raises [Invalid_argument]
    ({!Shard.serial_jobs}).
    @raise Failure when the grid is empty, when supervision fails
    unrecoverably, when the merge is incomplete, or when the [resume]
    journal is not this matrix's: its header pins the cells' keys, so
    another grid's journal is refused ({!Shard.run}). *)

(** Persistence: a versioned [sweep] document ({!Store.sweep_latest_path}
    plus an immutable copy under {!Store.sweeps_dir}). *)

val to_json : t -> Tce_obs.Json.t
val of_json : Tce_obs.Json.t -> (t, string) result

(** Write [latest] (default {!Store.sweep_latest_path}) and an immutable
    copy under [dir] (default {!Store.sweeps_dir}). Returns the copy's
    path, or [None] when [dir] is [""], which turns the copy off. *)
val save : ?latest:string -> ?dir:string -> t -> string option

(** Read a saved sweep ({!Store.read_json}: errors name the path). *)
val load : string -> (t, string) result

(** Per-point objective summary ([s_cost] is the geometry's SRAM cost
    proxy in bytes, [entries * (2 + 3 + cl_size) + 16 * ways];
    removal/speedup over the summed rows). *)
type summary = {
  s_point : point;
  s_cost : int;
  s_cycles_off : float;
  s_cycles_on : float;
  s_speedup_pct : float;
  s_checks_off : int;
  s_checks_on : int;
  s_removal_pct : float;
}

val summarize : point -> Record.workload list -> summary

val aggregate : t -> summary list
(** Roster-aggregate summaries, one per point with at least one completed
    cell, in matrix order. *)

val per_workload : t -> (string * summary list) list

val dominates : summary -> summary -> bool
(** No worse on all three objectives, strictly better on one. *)

val frontier : summary list -> summary list
(** The non-dominated subset, input order preserved. *)

val baseline_check : ?baseline_path:string -> t -> (string, string) result
(** One report line checking the default geometry's rows against the
    committed baseline ({!Record.equal_deterministic} per matching
    workload); [Error] when any row differs. The baseline is decoded
    once per version of the file ({!Store.baseline_rows}), so the
    report and the exit status of one [sweep] share one decode. *)

val to_csv : t -> string
(** One CSV row per (scope, point) summary; scope ["all"] is the roster
    aggregate, then one scope per workload. [pareto] flags frontier
    membership within the scope. *)

val report : ?baseline_path:string -> t -> string
(** The full text report: header, roster-aggregate table with frontier
    markers, per-workload frontiers, baseline-identity line and the
    cheapest-within-1% headline. *)
