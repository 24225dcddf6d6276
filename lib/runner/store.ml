(** Persistent benchmark-result store (see store.mli). *)

module J = Tce_obs.Json

let latest_path = "BENCH_latest.json"
let attr_latest_path = "ATTR_latest.json"
let prof_latest_path = "PROF_latest.json"
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
    ?(cache_stats = (0, 0)) ?(figures = []) ~host_wall_seconds workloads :
    Record.run =
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
    figures;
  }

(* --- persistence --- *)

let mkdir_p = Supervise.mkdir_p

let save ?(latest = latest_path) (r : Record.run) =
  Tce_obs.Export.to_file ~path:latest (Record.run_to_json r)

let save_prof ?(latest = prof_latest_path) (doc : J.t) =
  Tce_obs.Export.to_file ~path:latest doc

(* --- reading files --- *)

let read_file path : (string, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
    (* opening names the path already; reading a directory does not *)
    Error (if String.starts_with ~prefix:(path ^ ": ") msg then msg else path ^ ": " ^ msg)

let read_json path decode =
  Result.bind (read_file path) (fun text ->
      Result.map_error (fun e -> path ^ ": " ^ e) (Result.bind (J.of_string text) decode))

(* --- the crash-safe row journal ---

   A header line, then one line per completed shard row ([row]
   document), each fsynced as it lands, so a crashed or OOM-killed
   parent leaves behind a replayable checkpoint: `--resume FILE` re-schedules only the cells the
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
  Result.map
    (fun text ->
      (* only lines terminated by '\n' count: a truncated final line is
         the expected signature of a crash mid-append and is silently
         dropped *)
      let rec keep = function
        | [] | [ _ ] -> []
        | l :: rest -> l :: keep rest
      in
      (* [keep] drops the final fragment: "" when the file ends in '\n',
         the torn line when a crash interrupted the last append *)
      List.filter (fun l -> l <> "") (keep (String.split_on_char '\n' text)))
    (read_file path)

let load path : (Record.run, string) result = read_json path Record.run_of_json

let file_version path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_dev, st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

(* [by_version tbl read path] is [read path], remembered in [tbl] with the
   version (device, inode, size, mtime) of the file it was read from: a
   process that asks again decodes an unchanged file once, and a
   rewritten or vanished one again. *)
let by_version tbl read path =
  let version = file_version path in
  match Hashtbl.find_opt tbl path with
  | Some (v, x) when version <> None && v = version -> x
  | _ ->
    let x = read path in
    Hashtbl.replace tbl path (version, x);
    x

(* Two projections of the baseline, each kept apart: every supervised run
   asks for the cost table, a sweep for the rows. The cost table is not
   derived from retained rows, so a process that only schedules (the
   fault campaign's parent) never holds the decoded baseline. *)
let baseline_costs = Hashtbl.create 1
let baseline_rows_by_path = Hashtbl.create 1

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
  match by_version baseline_costs read_baseline_costs path with
  | None -> fun _ -> None
  | Some tbl -> fun w -> Hashtbl.find_opt tbl w.Tce_workloads.Workload.name

let read_baseline_rows path =
  Result.map
    (fun (r : Record.run) ->
      let tbl = Hashtbl.create 64 in
      (* the first row of a name wins, as a scan of the list would find it *)
      List.iter
        (fun (w : Record.workload) ->
          if not (Hashtbl.mem tbl w.Record.name) then
            Hashtbl.add tbl w.Record.name w)
        r.Record.workloads;
      tbl)
    (load path)

let baseline_rows ?(path = baseline_path) () =
  Result.map
    (fun tbl name -> Hashtbl.find_opt tbl name)
    (by_version baseline_rows_by_path read_baseline_rows path)

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
