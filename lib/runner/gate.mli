(** Perf-regression gate: compare a fresh run against a stored baseline
    and fail when the headline numbers degrade beyond tolerance.

    Guarded metrics, per workload (matched by name over the baseline's
    roster):
    - [checksum] — the measured bench() value must not change at all;
    - [cycles] — steady-state mechanism-on simulated cycles must not grow
      by more than the tolerance (percent);
    - [check-removal] — the percentage of dynamic checks elided by the
      mechanism must not drop by more than the tolerance (points).

    Improvements never fail the gate; refresh the baseline to lock them in
    (procedure in EXPERIMENTS.md). *)

type metric = Cycles | Check_removal | Checksum

val metric_name : metric -> string

type verdict = {
  workload : string;
  metric : metric;
  base : float;
  cur : float;
  delta : float;
      (** signed change, oriented so positive = worse for [Cycles] (percent
          growth) and negative = worse for [Check_removal] (points lost) *)
  ok : bool;
}

type report = {
  verdicts : verdict list;
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
      (** warn-only findings (never fail the gate): per-kind shares of the
          kept checks that shifted beyond tolerance vs the baseline, and
          quarantined workloads. Host wall time is never compared; it is
          measured by perfbench. *)
  ok : bool;
}

val default_tolerance_pct : float  (** 2.0 *)

(** Pure comparison of two runs (no I/O, no execution). *)
val check_run :
  ?tolerance_pct:float ->
  baseline:Record.run ->
  current:Record.run ->
  unit ->
  report

(** Per-workload delta table plus a PASS/FAIL summary line, to stdout. *)
val print_report : baseline:Record.run -> current:Record.run -> report -> unit

(** Load the baseline, re-run its roster (narrowed to [names] when
    non-empty; workloads resolved through [resolve], default the global
    registry) through {!Runner.run_suite} ([shards] and [supervise] as
    there: serial in this process by default), print the delta table
    and return the process exit code: 0 = pass, 1 = regression, 2 =
    usage/baseline error, among them a name in [names] that matches no
    baseline row (every such name is listed on stderr). [cache] threads
    the cell cache into the run, prints its stats and prunes it after
    the run. It writes no record: a gate run leaves [BENCH_latest.json]
    as it was. *)
val run_gate :
  ?baseline_path:string ->
  ?tolerance_pct:float ->
  ?cache:Cache.t ->
  ?names:string list ->
  ?resolve:(string -> Tce_workloads.Workload.t option) ->
  ?shards:int ->
  ?supervise:Supervise.config ->
  unit ->
  int
