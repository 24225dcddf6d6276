(** Persistent benchmark-result store.

    Every [bench] run is saved once: [BENCH_latest.json] is overwritten
    with the most recent run ([check] saves nothing). Host time is measured from
    outside, by perfbench; the store keeps no run history. *)

val latest_path : string  (** ["BENCH_latest.json"] *)

val prof_latest_path : string
(** ["PROF_latest.json"] — roster-wide cycle-attribution profiles
    (`bench --profile`). *)

val baseline_path : string  (** ["results/baseline.json"] *)

val bench_journal_path : string
(** ["results/journal/bench.jsonl"] — the supervised bench driver's
    crash-safe row journal: a [journal] header line naming the matrix,
    then one [row] document per line. *)

val faults_journal_path : string
(** ["results/journal/faults.jsonl"] — ditto for the fault campaign. *)

val sweep_journal_path : string
(** ["results/journal/sweep.jsonl"] — ditto for the sweep. *)

val sweep_latest_path : string
(** ["SWEEP_latest.json"] — the most recent design-space sweep report. *)

val sweeps_dir : string
(** ["results/sweeps"] — immutable sweep-report archive. *)

val cache_dir : string
(** ["results/cache"] — the content-addressed cell cache ({!Cache}). *)

(** Append-only, fsync-per-line journal of completed shard rows. A run
    that dies (parent crash, container OOM) leaves a replayable
    checkpoint behind: [--resume FILE] schedules only the cells the
    journal does not hold. *)
type journal

(** Truncate/create [path] (directories made as needed). *)
val journal_open : string -> journal

(** Append one envelope line + ['\n'], flush and fsync. *)
val journal_append : journal -> string -> unit

val journal_close : journal -> unit

(** Every complete (newline-terminated) line of a journal; a torn final
    line — the signature of a crash mid-append — is dropped, not an
    error. *)
val journal_lines : string -> (string list, string) result

(** [mkdir -p]: create [dir] and its missing parents. *)
val mkdir_p : string -> unit

(** The first 12 hex digits of the HEAD commit of the checkout enclosing
    the working directory, or ["unknown"] outside a checkout or before its
    first commit. Read from the [.git] files in-process, with no [git]
    process (resolution rules in lib/runner/README.md). *)
val git_sha : unit -> string

(** Current time as [YYYY-MM-DDTHH:MM:SSZ]. *)
val timestamp_utc : unit -> string

(** Stamp workload records with provenance (SHA, config hash, timestamp).
    [shards] (default 1) records how many worker processes produced the
    rows.
    [quarantined]/[resumed_rows] (default empty) carry the supervised
    driver's recovery provenance; [figures] (default empty) the rows'
    figure inputs, keyed by workload name. *)
val make_run :
  ?shards:int ->
  ?quarantined:Supervise.quarantined list ->
  ?resumed_rows:int list ->
  ?cache_stats:int * int ->
  ?figures:(string * Record.figures) list ->
  host_wall_seconds:float ->
  Record.workload list ->
  Record.run

(** Write the run to [latest] (default {!latest_path}). *)
val save : ?latest:string -> Record.run -> unit

(** Write a [prof-report] document to [latest] (default
    {!prof_latest_path}). *)
val save_prof : ?latest:string -> Tce_obs.Json.t -> unit

(** The whole of a file. Every failure, a missing path or a directory
    included, is an [Error] that names the path. *)
val read_file : string -> (string, string) result

(** [read_json path decode] parses the file at [path] as JSON and decodes
    it; every error names [path]. *)
val read_json :
  string -> (Tce_obs.Json.t -> ('a, string) result) -> ('a, string) result

(** Parse a stored run (the latest file or a committed baseline). *)
val load : string -> (Record.run, string) result

(** Baseline whole-run cycles per workload name (off + on sides), as the
    cost function behind the runner's longest-first schedule. An absent or
    unreadable baseline (default {!baseline_path}) yields [fun _ -> None].
    The table is decoded once per version of the file (device, inode,
    size, modification time) and reused while the file is unchanged. *)
val baseline_cost_of_workload :
  ?path:string -> unit -> Tce_workloads.Workload.t -> float option

(** The baseline's row of a workload name (default {!baseline_path}), or
    why the file could not be read. Decoded once per version of the file,
    like {!baseline_cost_of_workload}'s table but kept apart from it. *)
val baseline_rows :
  ?path:string -> unit -> (string -> Record.workload option, string) result

(** Per-workload cycle/speedup table plus run provenance, to stdout. *)
val print_summary : Record.run -> unit
