(** Self-healing sharded execution: a supervised worker pool.

    A plain fan-out is fire-and-pray: one crashed worker voids the whole
    run, and a hung worker blocks its [select] loop forever. The cell
    driver's sharded mode ({!Shard.run}) runs on this supervisor, which keeps
    a deterministic run alive through worker loss:

    - {e Work queue} — cells come in groups (the cells of one workload),
      queued longest first. Each of the [shards] worker lineages runs one
      group per process; when that process exits clean, the lineage spawns
      the next group at once, so no worker idles while work is queued and
      each group's per-process set-up runs once.
    - {e Liveness tracking} — each worker owes the supervisor one row per
      cell of its group, in order. The progress deadline for the in-flight
      cell is [cell_timeout_s] scaled by the cell's committed baseline
      cost relative to the roster median, so a hung worker (or one stuck
      on a pathological cell) is SIGKILLed and logged instead of blocking
      the drain forever.
    - {e Crash/hang recovery} — when a worker dies (crash, hang, garbage
      or truncated output), its lineage respawns over only the group's
      {e missing} cell indices. Rows carry their roster index and every
      cell is deterministic, so the merged record is byte-identical to a
      serial run under any interleaving of failures.
    - {e Bounded retries, exponential backoff, quarantine} — the cell
      in flight when a worker dies is blamed; a cell that kills its
      worker [max_retries] times is quarantined (excluded from further
      scheduling and reported in the run envelope) so one poison cell
      cannot burn the whole campaign. Respawns back off exponentially.
    - {e Checkpoint/resume} — every accepted row is appended to a
      crash-safe journal (caller-provided sink); a later run can replay
      the journal ([resume_rows]) and schedule only the remainder.
    - {e Graceful degradation} — if forking itself fails (fd/memory
      pressure), the supervisor runs that group's cells in-process,
      serially, via [serial_run].

    The supervisor is generic over the row type: {!Shard.run}
    instantiates it with the [row] documents of the bench, fault and
    sweep matrices. State machine per worker lineage:

    {v idle  -> queue empty                        -> done
          -> spawn over the next group
     spawn -> drain -> (EOF, all rows in)          -> idle
                    -> (crash/garbage/partial)     -> blame in-flight cell
                    -> (deadline exceeded)         -> SIGKILL, blame
     blame -> kills(cell) >= max_retries           -> quarantine cell
           -> group cells remain                   -> backoff -> respawn
           -> none remain                          -> idle
     spawn raises                                  -> group in-process v} *)

(** One schedulable cell: a roster/matrix index, a human name for
    diagnostics, and the committed baseline cost (arbitrary unit — only
    ratios matter) used to scale its progress deadline. *)
type task = { t_index : int; t_name : string; t_cost : float option }

type config = {
  max_retries : int;
      (** kills a single cell may cause before it is quarantined *)
  cell_timeout_s : float;
      (** base progress deadline per cell, seconds; scaled by the cell's
          cost relative to the roster median ([--supervise-timeout]) *)
  backoff_base_s : float;  (** first respawn delay for a worker lineage *)
  backoff_cap_s : float;  (** upper bound on the exponential backoff *)
  verbose : bool;
      (** log supervision events, and one line per accepted cell, to
          stderr *)
}

val default_config : config

(** EINTR-safe syscall wrappers: any signal (SIGCHLD from a dying worker,
    profiling timers) can interrupt [select]/[read]/[waitpid] mid-drain,
    and the only correct response is to retry. *)

val select_restart :
  Unix.file_descr list ->
  Unix.file_descr list ->
  Unix.file_descr list ->
  float ->
  Unix.file_descr list * Unix.file_descr list * Unix.file_descr list

val read_restart : Unix.file_descr -> Bytes.t -> int -> int -> int
val waitpid_restart : Unix.wait_flag list -> int -> int * Unix.process_status

(** [mkdir -p]: create [dir] and its missing parents (the one definition
    in this library; {!Store.mkdir_p} re-exports it). *)
val mkdir_p : string -> unit

(** A poisoned cell: excluded from the run after killing its worker
    [max_retries] times. *)
type quarantined = {
  q_index : int;
  q_name : string;
  q_kills : int;
  q_reason : string;  (** last failure the cell was blamed for *)
}

val quarantined_to_json : quarantined -> Tce_obs.Json.t
val quarantined_of_json : Tce_obs.Json.t -> (quarantined, string) result

(** Result of a supervised run. [rows] holds every completed cell
    (resumed rows first, then arrival order); indices absent from both
    [rows] and [quarantined] do not exist. *)
type 'row outcome = {
  rows : (int * 'row) list;
  quarantined : quarantined list;  (** in roster-index order *)
  resumed : int list;  (** indices replayed from a journal, ascending *)
  respawns : int;
      (** worker processes spawned to resume a group after a fault; 0 for
          a clean run *)
  degraded_serial : int;  (** cells that fell back to in-process execution *)
}

(** How a worker spawn is performed — injectable so tests can simulate
    fork failure. [default_spawn] is {!Unix.create_process} with stdin
    from [/dev/null]. Must return the child pid. *)
type spawn =
  exe:string ->
  argv:string array ->
  stdout:Unix.file_descr ->
  stderr:Unix.file_descr ->
  int

val default_spawn : spawn

(** [run ~config ~shards ~argv_of_indices ~parse ~to_line groups]
    executes every task across [shards] supervised worker lineages, each
    a succession of processes of [exe] (default [Sys.executable_name]).
    [groups] is the queue, in the order the groups are taken (pass the
    longest first); each group's tasks are in execution order. A group
    runs in one process unless its worker dies.

    - [argv_of_indices ~slot ~attempt indices] is the full argv for a
      worker covering exactly [indices] (in execution order): one group,
      or the remainder of one after a fault. [slot] is the 1-based
      lineage, whose processes share [log_dir/shard-K.log]; [attempt]
      counts the faults the lineage has respawned after.
    - [parse line] decodes one worker stdout line into [(index, row)];
      any [Error] is a worker fault (garbage output kills the worker).
    - [to_line index row] re-serializes a row for the journal.
    - [journal] receives every accepted row line (resumed rows first) —
      the crash-safe checkpoint stream.
    - [serial_run index] computes a row in-process — the fallback when
      [spawn] raises; omitting it turns fork failure into [Error].
    - [resume_rows] are journal-replayed rows: their indices are not
      scheduled, and they are re-journaled so the new journal stays a
      complete checkpoint.

    The run starts with a full major collection, so the parent's heap
    use is the same from one identical run to the next.
    Returns [Error] only for unrecoverable supervision failures (fork
    failed with no [serial_run]); quarantined cells are reported in the
    outcome, not as errors — strictness is the caller's policy. *)
val run :
  ?exe:string ->
  ?spawn:spawn ->
  ?journal:(string -> unit) ->
  ?serial_run:(int -> 'row) ->
  ?resume_rows:(int * 'row) list ->
  config:config ->
  shards:int ->
  log_dir:string ->
  argv_of_indices:(slot:int -> attempt:int -> int list -> string array) ->
  parse:(string -> (int * 'row, string) result) ->
  to_line:(int -> 'row -> string) ->
  task list list ->
  ('row outcome, string) result

(** Deterministic process-level chaos, for proving the supervisor: a
    worker armed with a chaos spec misbehaves in one of the ways a real
    container does. Modes (worker-side spec grammar [MODE:ARG]):

    - [crash-after:K] — exit(3) after emitting K rows;
    - [sigkill-after:K] — SIGKILL itself after K rows;
    - [hang-after:K] — emit K rows then sleep forever (deadline test);
    - [garbage-after:K] — emit K rows, then one non-envelope line;
    - [truncate-after:K] — emit K rows, then half of the next row and
      exit 0 (partial final line);
    - [poison:IDX] — die with exit(3) whenever about to run cell [IDX]
      (fires on every attempt: the quarantine scenario). *)
module Chaos : sig
  type mode =
    | Crash_after
    | Sigkill_after
    | Hang_after
    | Garbage_after
    | Truncate_after
    | Poison

  type t = { mode : mode; arg : int }

  val mode_name : mode -> string
  val parse_mode : string -> (mode, string) result

  (** Parse a worker-side spec ([MODE:ARG]). *)
  val parse : string -> (t, string) result

  val to_string : t -> string

  (** Parent side: [arm ~mode ~seed scheduled] aims one drill, chosen by
      [seed], at one index of [scheduled] (the cells the workers will
      run) and returns the per-spawn chooser: given the indices a spawn
      covers, in order, the worker argv fragment (["--chaos"; spec]), or
      [None] when that spawn runs clean. Recoverable modes arm only the
      first spawn that covers the target and fire just before its row;
      [poison] arms every spawn that covers it. The chooser remembers
      whether it has fired: make one per run. *)
  val arm : mode:mode -> seed:int -> int list -> int list -> string list option

  (** Worker side: call before computing the row for [index] with
      [emitted] rows already streamed. Depending on the armed mode this
      crashes, hangs, or emits garbage (never returning), returns
      [`Truncate] when the next row must be half-written, or [`Run]. *)
  val before_cell :
    t option -> emitted:int -> index:int -> out_channel -> [ `Run | `Truncate ]

  (** Emit the first half of [line] (no newline), flush, exit 0. *)
  val truncate_line : out_channel -> string -> 'a
end
