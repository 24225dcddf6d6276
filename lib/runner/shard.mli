(** One driver and one worker loop for every cell matrix (the benchmark
    roster, the fault campaign and the design-space sweep).

    A matrix is a deterministic list of cells, each a pure function of
    its identity, described by a {!cells} value that both sides build
    from the same inputs. The driver ({!run}) has two modes. With one
    shard and no journal to resume, it runs the cells in this process,
    serially in index order. Otherwise it groups them by workload,
    queues the groups longest-first by committed baseline cost and hands
    them to {!Supervise.run}: one worker process of the current
    executable per group is spawned with an explicit cell list
    ([--worker-indices i,j,k]), dead or hung workers are respawned over
    the cells they still owed, and every accepted row is journaled.
    Both modes share the cell-cache pre-resolution and install. The
    {e worker} ({!worker}) runs exactly its cells, in order,
    streaming one single-line [row] document per cell on stdout;
    stderr is free-form logging. Rows are merged by index
    ({!merge_rows}), whatever order they arrived in. A journal's first
    line is a [journal] header that pins it to its matrix.

    Simulated numbers are bit-identical across modes by construction
    (each cell runs in its own engine); a merged benchmark document is
    byte-identical after {!Record.normalize_run} strips the
    host-dependent fields. *)

(** [merge_rows ~what ~expected rows] places each [(index, row)] into a
    dense [expected]-slot array and returns the rows in index order.
    [Error] when an index is out of range, arrives twice, or is missing —
    a sharding bug must fail the run, never truncate it silently. [what]
    names the matrix in errors ([bench], [sweep] or [faults]); [names]
    maps an index to its workload name so errors read
    [missing: fib, deopt-storm (indices 3, 54)] instead of bare indices. Indices in [quarantined] are allowed to be
    absent (the supervisor excluded them); their slots are skipped. *)
val merge_rows :
  ?names:(int -> string option) ->
  ?quarantined:int list ->
  what:string ->
  expected:int ->
  (int * 'a) list ->
  ('a list, string) result

(** {1 Rows} *)

(** How one row's payload crosses the process boundary, and
    [cache_form], the row as the cell cache stores it (host wall clocks
    cleared). *)
type 'row codec = {
  encode : 'row -> Tce_obs.Json.t;
  decode : Tce_obs.Json.t -> ('row, string) result;
  cache_form : 'row -> 'row;
}

(** The codec of {!Record.cell} rows, the bench and sweep matrices'. *)
val cell_codec : Record.cell codec

(** Wrap / unwrap one positioned row in its versioned single-line [row]
    document, [{"index": i, "row": payload}] — the unit a worker streams
    and the journal stores, whatever the matrix. [index] is the cell's
    position in the matrix. *)
val row_to_json : 'row codec -> index:int -> 'row -> Tce_obs.Json.t

val row_of_json : 'row codec -> Tce_obs.Json.t -> (int * 'row, string) result

(** {1 Cell matrices} *)

(** [longest_first_order ~cost xs] is the longest-first schedule as a
    permutation of [0 .. n-1]: position [k] holds the input index to run
    [k]-th. Unknown-cost items first (they could be arbitrarily long),
    then known costs descending, ties by input index — a pure,
    deterministic function of the inputs. *)
val longest_first_order : cost:('a -> float option) -> 'a list -> int array

(** One matrix as both sides see it. [argv] is the worker's subcommand
    ([bench], [sweep] or [faults], which names the matrix in errors)
    and the cell-identity arguments (roster names, sweep spec) that let a
    worker rebuild the same matrix; [name] labels cell [i] in
    diagnostics; [workload] names the workload it runs (the supervised
    mode runs a workload's cells in one worker process, so per-process
    set-up such as a campaign's [prep] or a shared pair half runs once);
    [cost] is its committed baseline cost (longest-first order and
    progress deadlines; only the supervised mode forces it); [key] its
    cell-cache key; [run] computes it in this process. Indices run over
    [0 .. count-1]. *)
type 'row cells = {
  codec : 'row codec;
  argv : string list;
  count : int;
  name : int -> string;
  workload : int -> string;
  cost : int -> float option;
  key : int -> string;
  run : int -> 'row;
}

(** Worker side of [--worker-indices i,j,k]: run exactly [indices] (in
    the given order), streaming one [row] document per cell to [out],
    flushed per row so the parent loses only the in-flight cell if this process
    dies. [chaos] arms a deterministic fault for the chaos harness
    ({!Supervise.Chaos}).
    @raise Failure on an index outside the matrix. *)
val worker :
  ?chaos:Supervise.Chaos.t ->
  indices:int list ->
  out:out_channel ->
  'row cells ->
  unit

(** The outcome of {!run}: completed rows in index order with
    quarantined cells absent, the quarantine, the indices replayed from
    the [resume] journal (cell-cache hits excluded), and this
    invocation's cell-cache [(hits, misses)]. *)
type 'row outcome = {
  rows : (int * 'row) list;
  quarantined : Supervise.quarantined list;
  resumed : int list;
  cache_stats : int * int;
}

(** [serial_jobs jobs] accepts [None] and [Some 1]. The matrix entry
    points ({!Runner.run_suite}, {!Campaign.run}, {!Sweep.run}) keep a
    [?jobs] argument only for callers written when cells could run on
    several OCaml domains; [--shards N] is now the one way to run cells
    in parallel.
    @raise Invalid_argument on any other value. *)
val serial_jobs : int option -> unit

(** Run every cell of the matrix. With [shards <= 1] and no [resume],
    in this process: cell-cache hits are taken as they are, misses run
    serially in index order through [cells.run] and are installed, each
    finished row is reported to [on_row], and no journal is written.
    Otherwise across [shards] supervised worker lineages
    ({!Supervise.run}): the cells of each workload form one group, in
    index order; groups are queued longest first (summed cell cost), and
    a lineage whose process finishes takes the next group. Dead or hung
    workers are respawned over their group's missing cells and poison
    cells quarantine after [supervise.max_retries] kills. Accepted rows
    are journaled to [journal_path], after a first line, the [journal]
    header: the digest of the cells' cache keys in index order, the cell
    count and [argv]. [resume] replays a previous journal so only the
    remainder runs, if its header is this matrix's (the keys include the
    simulator fingerprint, so this build's too); a journal with no
    complete line resumes nothing. With [cache], hits are pre-resolved before
    scheduling (a fully cached matrix starts no worker) and fresh rows
    are installed as they arrive. [worker_args] pass through to each
    worker after the cells' own [argv]; [chaos] is the parent side of
    the chaos harness ([mode, seed]), aimed by {!Supervise.Chaos.arm} at
    one of the cells the workers run; [exe]/[spawn] are test injection
    points. If spawning fails, the remaining cells run in-process.
    [on_row] sees in-process rows only.
    @raise Failure when supervision fails unrecoverably, when the merge
    is incomplete (a missing index that is not quarantined), or when the
    [resume] journal cannot be read, has no header or has another
    matrix's. The refusal is one line naming the file and both matrices;
    nothing has run and the journal is untouched. *)
val run :
  ?exe:string ->
  ?spawn:Supervise.spawn ->
  ?log_dir:string ->
  ?supervise:Supervise.config ->
  journal_path:string ->
  ?resume:string ->
  ?chaos:Supervise.Chaos.mode * int ->
  ?cache:Cache.t ->
  ?on_row:('row -> unit) ->
  shards:int ->
  worker_args:string list ->
  'row cells ->
  'row outcome
