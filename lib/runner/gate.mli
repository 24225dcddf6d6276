(** Regression gate: compare a fresh run against a stored baseline and
    fail when any simulated number changed.

    The simulator is deterministic, so a row is a pure function of
    (source, config, seed) and the comparison is exact: a baseline row
    passes when the current row of the same name is
    {!Record.equal_deterministic} to it — every field but the host wall
    clocks, the checksum and all simulated counts included. A row that
    differs, improvements included, fails and is reported one line per
    differing field ({!Record.diff}); refresh the baseline to accept an
    intended change (procedure in EXPERIMENTS.md). *)

type report = {
  compared : (Record.workload * Record.workload) list;
      (** (baseline, current) rows of the baseline workloads the current
          run completed, in baseline order *)
  differ : (string * string list) list;
      (** the compared rows that are not {!Record.equal_deterministic},
          by workload name, each with its {!Record.diff} lines *)
  missing : string list;
      (** baseline workloads absent from the current run for no recorded
          reason — each one fails the gate *)
  quarantined : string list;
      (** baseline workloads absent because the current run's supervisor
          quarantined them (poison cells): the gate compares the completed
          rows only and warns instead of failing *)
  config_mismatch : bool;
      (** the two runs were measured under different simulator configs *)
  warnings : string list;
      (** one non-gating line per quarantined workload. Host wall time is
          never compared; it is measured by perfbench. *)
  ok : bool;
}

(** Pure comparison of two runs (no I/O, no execution), matched by
    workload name over the baseline's roster. *)
val check_run : baseline:Record.run -> current:Record.run -> unit -> report

(** Load the baseline, re-run its roster (narrowed to [names] when
    non-empty; workloads resolved through [resolve], default the global
    registry) through {!Runner.run_suite} ([shards], [supervise] and
    [cache] as there: serial in this process by default), print each
    differing, missing or quarantined row and a one-line summary (the
    mean [cycles_on] delta when rows differ), and return the process exit
    code: 0 = every row identical, 1 = regression, 2 = usage/baseline
    error, among them a name in [names] that matches no baseline row
    (every such name is listed on stderr). It writes no record: a gate
    run leaves [BENCH_latest.json] as it was. *)
val run_gate :
  ?baseline_path:string ->
  ?cache:Cache.t ->
  ?names:string list ->
  ?resolve:(string -> Tce_workloads.Workload.t option) ->
  ?shards:int ->
  ?supervise:Supervise.config ->
  unit ->
  int
