(** Persistent benchmark-result store (see store.mli). *)

module J = Tce_obs.Json

let latest_path = "BENCH_latest.json"
let attr_latest_path = "ATTR_latest.json"
let prof_latest_path = "PROF_latest.json"
let time_latest_path = Filename.concat "results" "bench_time.json"

(* Pre-v9 releases wrote the time report to the repo root; keep reading
   the old location for one release so existing tooling migrates. *)
let time_legacy_path = "bench_time.json"

let time_report_path () =
  if Sys.file_exists time_latest_path then time_latest_path
  else if Sys.file_exists time_legacy_path then time_legacy_path
  else time_latest_path
let history_dir = Filename.concat "results" "history"
let baseline_path = Filename.concat "results" "baseline.json"
let journal_dir = Filename.concat "results" "journal"
let bench_journal_path = Filename.concat journal_dir "bench.jsonl"
let faults_journal_path = Filename.concat journal_dir "faults.jsonl"
let sweep_journal_path = Filename.concat journal_dir "sweep.jsonl"
let sweep_latest_path = "SWEEP_latest.json"
let sweeps_dir = Filename.concat "results" "sweeps"
let cache_dir = Filename.concat "results" "cache"

(* --- provenance ---

   The HEAD commit is read from the repository's files, as git itself
   resolves it, instead of forking [git rev-parse] on every stamp. The
   files are read with [Unix] through one small buffer, with no channel
   and no whole-file string, so a stamp allocates the same few words
   however many refs the repository packs. *)

(* [f chunk n] over each chunk [fd] reads, until the end of the file or
   until [f] returns [false] *)
let iter_chunks fd f =
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Supervise.read_restart fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> if f chunk n then go ()
  in
  go ()

(* [f fd] over the file at [path]; [None] when it cannot be opened or read *)
let with_file path f =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
    match Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd) with
    | r -> r
    | exception Unix.Unix_error _ -> None)

let read_trimmed path =
  with_file path (fun fd ->
      let text = Buffer.create 64 in
      iter_chunks fd (fun chunk n ->
          Buffer.add_subbytes text chunk 0 n;
          true);
      Some (String.trim (Buffer.contents text)))

let after_prefix ~prefix s =
  if String.starts_with ~prefix s then
    let l = String.length prefix in
    Some (String.trim (String.sub s l (String.length s - l)))
  else None

let relative_to dir p = if Filename.is_relative p then Filename.concat dir p else p

(* The git directory of the checkout enclosing [dir]: the nearest [.git]
   directory, or the directory a [.git] file names in its [gitdir:] line
   (worktrees, submodules). A [.git] file without one ends the search, as
   it does for git. *)
let rec find_git_dir dir =
  let dot = Filename.concat dir ".git" in
  if Sys.file_exists dot then
    if Sys.is_directory dot then Some dot
    else
      Option.map (relative_to dir)
        (Option.bind (read_trimmed dot) (after_prefix ~prefix:"gitdir:"))
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_git_dir parent

let object_id s =
  if
    String.length s >= 40
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  then Some s
  else None

(* [name]'s entry in a packed-refs file: the first "<id> <name>" line,
   skipping the "#" header and the "^<id>" peeled lines of annotated tags.
   The file is scanned a byte at a time as it streams in, keeping only the
   current line's id. *)
let packed_ref ~common_dir name =
  let len = String.length name in
  let id = Buffer.create 64 in
  (* the current line: at its first byte; bytes of [name] matched after
     its first space, or -1 before that space; or past hope of matching *)
  let fresh = ref true and matched = ref (-1) and skip = ref false in
  let found = ref None in
  let end_line () =
    if (not !skip) && !matched = len then found := Some (Buffer.contents id);
    fresh := true;
    matched := -1;
    skip := false;
    Buffer.clear id
  in
  let step c =
    if c = '\n' then end_line ()
    else if not !skip then begin
      if !fresh && (c = '#' || c = '^') then skip := true
      else if !matched < 0 then if c = ' ' then matched := 0 else Buffer.add_char id c
      else if !matched < len && name.[!matched] = c then incr matched
      else skip := true;
      fresh := false
    end
  in
  with_file (Filename.concat common_dir "packed-refs") (fun fd ->
      iter_chunks fd (fun chunk n ->
          let i = ref 0 in
          while Option.is_none !found && !i < n do
            step (Bytes.get chunk !i);
            incr i
          done;
          Option.is_none !found);
      (* a last line without its newline *)
      if Option.is_none !found then end_line ();
      !found)

(* The object id a HEAD-style file's contents name: the id itself, or a
   "ref: <name>" followed through loose ref files, then packed-refs, at
   most five symbolic hops deep (git's own limit). *)
let rec resolve ~common_dir ~hops content =
  match after_prefix ~prefix:"ref:" content with
  | None -> object_id content
  | Some _ when hops = 0 -> None
  | Some name -> (
    match read_trimmed (Filename.concat common_dir name) with
    | Some loose -> resolve ~common_dir ~hops:(hops - 1) loose
    | None -> Option.bind (packed_ref ~common_dir name) object_id)

let head_id () =
  Option.bind (find_git_dir (Sys.getcwd ())) (fun git_dir ->
      (* a worktree's git directory holds its own HEAD; refs are shared
         through the directory its [commondir] file names *)
      let common_dir =
        match read_trimmed (Filename.concat git_dir "commondir") with
        | Some d -> relative_to git_dir d
        | None -> git_dir
      in
      Option.bind (read_trimmed (Filename.concat git_dir "HEAD"))
        (resolve ~common_dir ~hops:5))

let git_sha () =
  match head_id () with
  | Some id -> String.sub id 0 12
  | None | (exception Sys_error _) -> "unknown"

(** Digest of everything that could change simulated numbers: the
    simulated-core parameters (Table 2), the Class Cache geometry and the
    engine's tier-up/deopt thresholds. Two runs with different hashes are
    not comparable and the gate says so instead of reporting deltas. *)
let config_hash ?(config = Tce_engine.Engine.default_config) () =
  let e = config in
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (k ^ "=" ^ v ^ ";"))
    (Tce_machine.Config.rows e.Tce_engine.Engine.mach_cfg);
  Buffer.add_string buf
    (Printf.sprintf "jit=%b;mechanism=%b;hoisting=%b;checked_load=%b;"
       e.Tce_engine.Engine.jit e.Tce_engine.Engine.mechanism
       e.Tce_engine.Engine.hoisting e.Tce_engine.Engine.checked_load);
  Buffer.add_string buf
    (Printf.sprintf "hot_call=%d;hot_backedge=%d;seed=%d;"
       e.Tce_engine.Engine.hot_call_count e.Tce_engine.Engine.hot_backedge_count
       e.Tce_engine.Engine.seed);
  (let b = e.Tce_engine.Engine.backoff in
   Buffer.add_string buf
     (Printf.sprintf
        "inst_limit=%d;storm=%d;cooldown=%d;maxexp=%d;decay=%d;"
        b.Tce_engine.Engine.instance_deopt_limit
        b.Tce_engine.Engine.storm_threshold
        b.Tce_engine.Engine.base_cooldown_cycles
        b.Tce_engine.Engine.max_backoff_exponent
        b.Tce_engine.Engine.decay_cycles));
  Buffer.add_string buf
    (Printf.sprintf "cc_entries=%d;cc_ways=%d;cl_size=%d"
       e.Tce_engine.Engine.cc_config.Tce_core.Class_cache.entries
       e.Tce_engine.Engine.cc_config.Tce_core.Class_cache.ways
       e.Tce_engine.Engine.cl_config.Tce_core.Class_list.tracked_positions);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let timestamp_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make_run ?(shards = 1) ?(quarantined = []) ?(resumed_rows = [])
    ?(cache_stats = (0, 0)) ~host_wall_seconds workloads : Record.run =
  let cache_hits, cache_misses = cache_stats in
  {
    Record.schema = Tce_obs.Export.schema_version;
    git_sha = git_sha ();
    config_hash = config_hash ();
    created_utc = timestamp_utc ();
    jobs = 1;
    shards;
    host_wall_seconds;
    workloads;
    quarantined;
    resumed_rows;
    cache_hits;
    cache_misses;
  }

(* --- persistence --- *)

let mkdir_p = Supervise.mkdir_p

(** [created_utc] with the separators dropped, e.g. [20260805T120102Z] —
    lexicographic order is chronological order. *)
let compact_stamp created_utc =
  String.concat ""
    (String.split_on_char ':'
       (String.concat "" (String.split_on_char '-' created_utc)))

(** History file name: sortable timestamp + SHA, e.g.
    [run-20260805T120102Z-ab12cd34ef56.json]. *)
let history_file (r : Record.run) =
  Printf.sprintf "run-%s-%s.json" (compact_stamp r.Record.created_utc)
    r.Record.git_sha

let save ?(latest = latest_path) ?history:(dir = history_dir) (r : Record.run) =
  Tce_obs.Export.to_file ~path:latest (Record.run_to_json r);
  if dir <> "" then begin
    mkdir_p dir;
    let path = Filename.concat dir (history_file r) in
    Tce_obs.Export.to_file ~path (Record.run_to_json r);
    path
  end
  else latest

(** Persist a [prof-report] document: always to [latest], and (when
    [history] is non-empty) as [prof-<stamp>-<sha>.json] beside the bench
    history, so {!Tce_prof.Report.diff_runs} has snapshots to diff
    against. Returns the history path (or [latest] when history is off). *)
let save_prof ?(latest = prof_latest_path) ?history:(dir = history_dir)
    ~git_sha:sha ~created_utc (doc : J.t) =
  Tce_obs.Export.to_file ~path:latest doc;
  if dir <> "" then begin
    mkdir_p dir;
    let path =
      Filename.concat dir
        (Printf.sprintf "prof-%s-%s.json" (compact_stamp created_utc) sha)
    in
    Tce_obs.Export.to_file ~path doc;
    path
  end
  else latest

(** The [--time] wall table as a versioned [time-report] document:
    workloads slowest-first by combined wall seconds, with both per-side
    clocks. Machine-readable twin of the text table. *)
let time_report_json (r : Record.run) : J.t =
  let rows =
    List.sort
      (fun (a : Record.workload) (b : Record.workload) ->
        compare b.Record.wall_seconds a.Record.wall_seconds)
      r.Record.workloads
  in
  Tce_obs.Export.document ~kind:"time-report"
    (J.Obj
       [
         ("git_sha", J.Str r.Record.git_sha);
         ("created_utc", J.Str r.Record.created_utc);
         ("jobs", J.Int r.Record.jobs);
         ("host_wall_seconds", J.Float r.Record.host_wall_seconds);
         ( "workloads",
           J.List
             (List.map
                (fun (w : Record.workload) ->
                  J.Obj
                    [
                      ("name", J.Str w.Record.name);
                      ("wall_seconds", J.Float w.Record.wall_seconds);
                      ("wall_seconds_off", J.Float w.Record.wall_seconds_off);
                      ("wall_seconds_on", J.Float w.Record.wall_seconds_on);
                    ])
                rows) );
       ])

let save_time_report ?(path = time_latest_path) (r : Record.run) =
  if path <> "-" then mkdir_p (Filename.dirname path);
  Tce_obs.Export.to_file ~path (time_report_json r)

(* --- the crash-safe row journal ---

   One line per completed shard row (bench-row / fault-cell envelope),
   fsynced as it lands, so a crashed or OOM-killed parent leaves behind a
   replayable checkpoint: `--resume FILE` re-schedules only the cells the
   journal does not already hold. A torn write can only damage the final
   line, which [journal_lines] drops. *)

type journal = { j_oc : out_channel; j_fd : Unix.file_descr }

let journal_open path : journal =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  { j_oc = oc; j_fd = Unix.descr_of_out_channel oc }

let journal_append j line =
  output_string j.j_oc line;
  output_char j.j_oc '\n';
  flush j.j_oc;
  (* fsync per row: rows are seconds of work each, durability is the point *)
  try Unix.fsync j.j_fd with Unix.Unix_error _ -> ()

let journal_close j = close_out j.j_oc

let journal_lines path : (string list, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (* only lines terminated by '\n' count: a truncated final line is the
       expected signature of a crash mid-append and is silently dropped *)
    let lines = String.split_on_char '\n' text in
    let rec keep = function
      | [] | [ _ ] -> []
      | l :: rest -> l :: keep rest
    in
    (* [keep] drops the final fragment: "" when the file ends in '\n', the
       torn line when a crash interrupted the last append *)
    Ok (List.filter (fun l -> l <> "") (keep lines))

let load path : (Record.run, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> Result.bind (J.of_string text) Record.run_of_json

(* The cost table last read from each baseline path, with the version
   of the file it was read from. Every supervised run asks for the table;
   a process that starts several decodes an unchanged file once. *)
let baseline_costs = Hashtbl.create 1

let file_version path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_dev, st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

let read_baseline_costs path =
  Result.to_option
    (Result.map
       (fun (r : Record.run) ->
         let tbl = Hashtbl.create 64 in
         List.iter
           (fun (w : Record.workload) ->
             Hashtbl.replace tbl w.Record.name
               (w.Record.whole_cycles_off +. w.Record.whole_cycles_on))
           r.Record.workloads;
         tbl)
       (load path))

(** Baseline whole-run cycle counts keyed by workload name, as a cost
    function for the runner's longest-first scheduler. An absent or
    unreadable baseline yields [fun _ -> None] (schedule stays in input
    order) — scheduling must never make a benchmark run fail. *)
let baseline_cost_of_workload ?(path = baseline_path) () :
    Tce_workloads.Workload.t -> float option =
  let version = file_version path in
  let costs =
    match Hashtbl.find_opt baseline_costs path with
    | Some (v, costs) when version <> None && v = version -> costs
    | _ ->
      let costs = read_baseline_costs path in
      Hashtbl.replace baseline_costs path (version, costs);
      costs
  in
  match costs with
  | None -> fun _ -> None
  | Some tbl -> fun w -> Hashtbl.find_opt tbl w.Tce_workloads.Workload.name

(* --- reporting --- *)

let print_summary (r : Record.run) =
  Printf.printf "%-22s %6s %14s %14s %8s %9s %8s\n" "workload" "suite"
    "cycles(off)" "cycles(on)" "speedup" "checks-rm" "wall(s)";
  List.iter
    (fun (w : Record.workload) ->
      Printf.printf "%-22s %6s %14.0f %14.0f %7.2f%% %8.2f%% %8.2f\n"
        w.Record.name
        (String.sub w.Record.suite 0 (min 6 (String.length w.Record.suite)))
        w.Record.cycles_off w.Record.cycles_on w.Record.speedup_pct
        w.Record.check_removal_pct w.Record.wall_seconds)
    r.Record.workloads;
  let speedups = List.map (fun w -> w.Record.speedup_pct) r.Record.workloads in
  let mean, ci = Tce_support.Stats.mean_ci95 speedups in
  Printf.printf
    "%d workloads, %d shard(s), %.2fs wall; mean speedup %.2f%% (±%.2f, 95%% \
     CI)\n"
    (List.length r.Record.workloads) r.Record.shards r.Record.host_wall_seconds
    mean ci;
  Printf.printf "sha %s  config %s  at %s\n" r.Record.git_sha
    (String.sub r.Record.config_hash 0 12)
    r.Record.created_utc;
  (match r.Record.resumed_rows with
  | [] -> ()
  | rs -> Printf.printf "resumed %d row(s) from the journal\n" (List.length rs));
  match r.Record.quarantined with
  | [] -> ()
  | qs ->
    Printf.printf "QUARANTINED %d cell(s) (excluded after repeated worker kills):\n"
      (List.length qs);
    List.iter
      (fun (q : Supervise.quarantined) ->
        Printf.printf "  %s (index %d, %d kills): %s\n" q.Supervise.q_name
          q.Supervise.q_index q.Supervise.q_kills q.Supervise.q_reason)
      qs
