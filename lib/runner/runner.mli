(** Benchmark-roster execution.

    Engine instances are self-contained and the simulator is
    deterministic, so every simulated number in the records is
    bit-identical whether a workload ran in this process or on a
    supervised worker ([--shards N]); only the host wall-clock fields
    depend on scheduling. Results always come back in input order. *)

(** Measure one workload (mechanism off + on) and build its record,
    through the in-process mode of {!Shard.run}. With [cache], the
    content-addressed cell cache is consulted first: a hit returns the
    stored row (wall clocks zeroed) without simulating, a miss simulates
    and installs the wall-zeroed row. Cached and fresh rows agree on
    every simulated field ({!Record.equal_deterministic}). *)
val run_one :
  ?cache:Cache.t ->
  Tce_workloads.Workload.t ->
  Record.workload

(** Measure one workload unconditionally (never consults the cache), under
    {!Tce_engine.Engine.default_config}. The sweep does not come through
    here: it simulates each workload's mechanism-off half once and each
    cell's mechanism-on half at the cell's geometry ({!Sweep.cells}). *)
val simulate_one : Tce_workloads.Workload.t -> Record.cell

(** Profile the roster serially, one
    {!Tce_metrics.Harness.run_pair_profiled} per workload — fresh engines
    and a fresh profile per side. Results come back in input order. *)
val run_profiles :
  Tce_workloads.Workload.t list ->
  Tce_metrics.Harness.profiled list

(** The roster as a matrix: cell [i] is the off/on pair of workload [i],
    worker subcommand [bench]. *)
val bench_cells :
  Tce_workloads.Workload.t list ->
  Record.cell Shard.cells

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
