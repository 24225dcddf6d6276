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
    a 0.0 wall time for it. A workload with one cell keys and keeps no
    half. *)
val pair_cells :
  argv:string list ->
  (Tce_engine.Engine.config * Tce_workloads.Workload.t) list ->
  Record.cell Shard.cells

(** The roster as a matrix: cell [i] is the off/on pair of workload [i]
    under the default config, worker subcommand [bench]. *)
val bench_cells :
  Tce_workloads.Workload.t list ->
  Record.cell Shard.cells

(** The cells of [pairs] in input order ({!pair_cells}): serially in this
    process, through {!Shard.run} and, with [cache], the cell cache. *)
val run_pairs :
  ?cache:Cache.t ->
  (Tce_engine.Engine.config * Tce_workloads.Workload.t) list ->
  Record.cell list

(** Run the roster through {!Shard.run} over {!bench_cells} and stamp a
    provenance-stamped {!Record.run} (git SHA, config hash, wall clock,
    [shards], quarantine, resumed rows and this invocation's cell-cache
    counts) that keeps the rows' figure inputs in [figures]. [shards]
    defaults to 1: serial, in this process. With [shards > 1] or
    [resume], the supervised mode runs, journaled to
    [journal_path] (default {!Store.bench_journal_path}). [on_row]
    observes each in-process row as it completes. [jobs] stays only for
    callers that still pass [~jobs:1]; any other value raises
    [Invalid_argument] ({!Shard.serial_jobs}).
    @raise Failure as {!Shard.run}, which refuses a [resume] journal of
    another roster or roster order. *)
val run_suite :
  ?exe:string ->
  ?spawn:Supervise.spawn ->
  ?log_dir:string ->
  ?supervise:Supervise.config ->
  ?journal_path:string ->
  ?resume:string ->
  ?chaos:Supervise.Chaos.mode * int ->
  ?cache:Cache.t ->
  ?jobs:int ->
  ?on_row:(Record.workload -> unit) ->
  ?shards:int ->
  ?worker_args:string list ->
  Tce_workloads.Workload.t list ->
  Record.run
