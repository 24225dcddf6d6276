(** Self-healing sharded execution: a supervised worker pool.

    A plain fan-out is fire-and-pray: one crashed worker voids the whole
    run, and a hung worker blocks its [select] loop forever. The cell
    driver's sharded mode ({!Shard.run}) runs on this supervisor, which keeps
    a deterministic run alive through worker loss:

    - {e Liveness tracking} — each worker owes the supervisor one row per
      assigned cell, in order. The progress deadline for the in-flight
      cell is [cell_timeout_s] scaled by the cell's committed baseline
      cost relative to the roster median, so a hung worker (or one stuck
      on a pathological cell) is SIGKILLed and logged instead of blocking
      the drain forever.
    - {e Crash/hang recovery} — when a worker dies (crash, hang, garbage
      or truncated output), a replacement is spawned over only the
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
      pressure), the supervisor falls back to running the remaining
      cells in-process, serially, via [serial_run].

    The supervisor is generic over the row type: {!Shard.run}
    instantiates it with [bench-row], [fault-cell] and [sweep-cell]
    envelopes. State machine per worker lineage:

    {v spawn -> drain -> (EOF, all rows in)        -> done
                      -> (crash/garbage/partial)   -> blame in-flight cell
                      -> (deadline exceeded)       -> SIGKILL, blame
       blame -> kills(cell) >= max_retries         -> quarantine cell
             -> remaining cells                    -> backoff -> respawn
             -> spawn raises                       -> in-process serial v} *)

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
  respawns : int;  (** worker processes spawned beyond the first wave *)
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

(** [deal ~shards xs] splits the schedule-ordered [xs] over [shards]
    worker lineages in snake order (lineage 1..N, then N..1, …), keeping
    each lineage's items in schedule order. Dealt longest-first, this
    gives every lineage a like share of the long head, where plain
    round-robin gives lineage 1 the longer item of every round. *)
val deal : shards:int -> 'a list -> 'a list array

(** [run ~config ~shards ~argv_of_indices ~parse ~to_line tasks] executes
    every task across [shards] supervised worker processes of [exe]
    (default [Sys.executable_name]).

    - [argv_of_indices ~slot ~attempt indices] is the full argv for a
      worker covering exactly [indices] (in execution order). [slot] is
      the 1-based worker lineage, [attempt] 0 for the first wave — the
      chaos harness uses them to aim a fault at one spawn.
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

    Tasks are dealt over the given task order by {!deal}, so pass them
    schedule-ordered (longest first). The run starts with a full major
    collection, so the parent's heap use is the same from one identical
    run to the next.
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
  task list ->
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

  (** Parent side: the worker argv fragment (["--chaos"; spec]) for the
      spawn of [slot]/[attempt] given the whole first-wave assignment,
      derived deterministically from [seed]. Exactly one first-wave
      worker misbehaves ([seed] picks which, and after how many rows);
      recoverable modes never fire on respawns, [poison] arms every
      spawn with the same doomed cell. [None] when this spawn is clean. *)
  val worker_args :
    mode:mode ->
    seed:int ->
    assignment:int list array ->
    slot:int ->
    attempt:int ->
    string list option

  (** Worker side: call before computing the row for [index] with
      [emitted] rows already streamed. Depending on the armed mode this
      crashes, hangs, or emits garbage (never returning), returns
      [`Truncate] when the next row must be half-written, or [`Run]. *)
  val before_cell :
    t option -> emitted:int -> index:int -> out_channel -> [ `Run | `Truncate ]

  (** Emit the first half of [line] (no newline), flush, exit 0. *)
  val truncate_line : out_channel -> string -> 'a
end
