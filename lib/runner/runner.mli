(** The (config, workload) pair-cell driver and benchmark-roster
    execution.

    Engine instances are self-contained and the simulator is
    deterministic, so every simulated number in the records is
    bit-identical whether a workload ran in this process or on a
    supervised worker ([--shards N]); only the host wall-clock fields
    depend on scheduling. Results always come back in input order. *)

(** Measure one workload (mechanism off + on) and build its record
    through {!run_pairs}: with [cache], a hit returns the stored row (wall
    clocks zeroed) without simulating, a miss simulates and installs it.
    Cached and fresh rows agree on every simulated field. *)
val run_one :
  ?cache:Cache.t ->
  Tce_workloads.Workload.t ->
  Record.workload

(** The one (config, workload) cell matrix: cell [i] is the off/on pair
    of [pairs.(i)]'s workload under its config, keyed {!Cache.bench_key}
    [~config], worker subcommand and identity [argv]. Each half is
    simulated by {!Tce_metrics.Harness.run} once per process: among the
    cells of one workload, a half equal to one already simulated (same
    {!Tce_engine.Engine.effective_config}) is reused and its cell reports
    a 0.0 wall time for it. A workload without a store
    ({!Tce_engine.Engine.stores}, decided once per workload per process)
    has one half, so each of its cells reuses its mechanism-off half as
    its mechanism-on half, with the [mechanism] field set. A workload
    with one cell keeps no half after its cell. *)
val pair_cells :
  argv:string list ->
  (Tce_engine.Engine.config * Tce_workloads.Workload.t) list ->
  Record.cell Shard.cells

(** The roster as a matrix: cell [i] is the off/on pair of workload [i]
    under the default config, worker subcommand [bench]. *)
val bench_cells :
  Tce_workloads.Workload.t list ->
  Record.cell Shard.cells

(** What the cycle-attribution profiler adds to a roster cell: its
    workload's prof-report pair and each side's folded lines. *)
type profile = {
  pair : Tce_prof.Report.pair;
  folded_off : string;
  folded_on : string;
}

(** {!bench_cells} with each half it simulates run under a fresh
    {!Tce_prof.Profile} (a store-free workload's on side re-summarizes
    its off half's), worker subcommand [bench --profile]. A row is cached
    under its cell's key with a ["profile"] member that
    {!Shard.cell_codec} ignores. *)
val profiled_bench_cells :
  Tce_workloads.Workload.t list -> (Record.cell * profile) Shard.cells

(** The cells of [pairs] in input order ({!pair_cells}): serially in this
    process, through {!Shard.run} and, with [cache], the cell cache. *)
val run_pairs :
  ?cache:Cache.t ->
  (Tce_engine.Engine.config * Tce_workloads.Workload.t) list ->
  Record.cell list

(** The rows of [run ()], a {!Shard.run} over [shards], in roster order,
    and their provenance-stamped {!Record.run} (git SHA, config hash, wall
    clock, [shards], quarantine, resumed rows, cell-cache counts and the
    rows' figure inputs) of each row's cell [cell row]. *)
val record :
  shards:int -> cell:('row -> Record.cell) -> (unit -> 'row Shard.outcome) ->
  Record.run * 'row list

(** {!record} of the roster through {!Shard.run} over {!bench_cells}:
    serial in this process for [shards] 1 (the default), else supervised
    and journaled to {!Store.bench_journal_path}. [on_row] observes each
    in-process row as it completes. [jobs] stays only for callers that
    still pass [~jobs:1]; any other value raises [Invalid_argument]
    ({!Shard.serial_jobs}). *)
val run_suite :
  ?supervise:Supervise.config ->
  ?cache:Cache.t ->
  ?jobs:int ->
  ?on_row:(Record.workload -> unit) ->
  ?shards:int ->
  Tce_workloads.Workload.t list ->
  Record.run
