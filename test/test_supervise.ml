(* Tests for the self-healing sharded driver (Tce_runner.Supervise):
   (a) chaos-mode matrix over /bin/sh fake workers — crash, hang, garbage,
       partial final line, unexpected index — each recovered by respawning
       over the missing cells, with the merged row set identical to a
       clean run;
   (a') the work queue: a workload group's cells run in one process, a
       lineage that finishes early takes the next group, and a clean run
       over more groups than lineages respawns nothing;
   (b) quarantine semantics: a poison cell is excluded after max_retries
       kills while the rest of the run completes;
   (c) graceful degradation to in-process serial when spawning fails;
   (d) checkpoint/resume: journal replay schedules only the remainder, a
       torn final journal line is dropped, and a journal whose header
       names another matrix (or that has none) is refused before
       anything runs;
   (e) EINTR restart in Supervise.run under a fast interval timer, and
       UTC-stamped per-shard stderr logs;
   (f) merge_rows errors that name workloads, quarantine-aware gate, and
       the recovery provenance JSON round-trip;
   (g) end-to-end: the roster on 2 supervised workers over the real
       bench/main.exe with seeded chaos, byte-identical to a serial run,
       and the sharded fault
       campaign cell-for-cell identical to the in-process one. *)

open Tce_runner

(* --- sh-based fake workers --- *)

let log_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "tce-supervise-test-logs"

let cfg =
  {
    Supervise.default_config with
    Supervise.cell_timeout_s = 5.0;
    backoff_base_s = 0.01;
    backoff_cap_s = 0.05;
    verbose = false;
  }

let task i =
  { Supervise.t_index = i; t_name = Printf.sprintf "cell-%d" i; t_cost = None }

(* cells 0 .. n-1 in groups of [size] consecutive cells, queued in order *)
let chunks ~size n =
  List.init ((n + size - 1) / size) (fun g ->
      List.init (min size (n - (g * size))) (fun k -> (g * size) + k))

let parse line =
  match String.index_opt line ':' with
  | None -> Error "no colon"
  | Some k -> (
    match int_of_string_opt (String.sub line 0 k) with
    | Some i -> Ok (i, String.sub line (k + 1) (String.length line - k - 1))
    | None -> Error "bad index")

let to_line i v = Printf.sprintf "%d:%s" i v
let sh script = [| "sh"; "-c"; script |]
let echoes indices = List.map (fun i -> Printf.sprintf "echo %d:v%d" i i) indices

let clean_argv ~slot:_ ~attempt:_ indices =
  sh (String.concat "; " (echoes indices))

let run_groups ?spawn ?journal ?serial_run ?resume_rows ?(config = cfg)
    ~shards ~argv groups =
  Supervise.run ~exe:"/bin/sh" ?spawn ?journal ?serial_run ?resume_rows
    ~config ~shards ~log_dir ~argv_of_indices:argv ~parse ~to_line
    (List.map (List.map task) groups)

(* one-cell groups unless [size] says otherwise *)
let run_sh ?spawn ?journal ?serial_run ?resume_rows ?config ?(size = 1)
    ~shards ~argv n =
  run_groups ?spawn ?journal ?serial_run ?resume_rows ?config ~shards ~argv
    (chunks ~size n)

let rows_t = Alcotest.(list (pair int string))
let sorted o = List.sort compare o.Supervise.rows
let complete n = List.init n (fun i -> (i, Printf.sprintf "v%d" i))

let expect_ok = function
  | Ok o -> o
  | Error e -> Alcotest.failf "supervised run failed: %s" e

let test_clean_run () =
  let o = expect_ok (run_sh ~shards:2 ~argv:clean_argv 5) in
  Alcotest.check rows_t "all rows" (complete 5) (sorted o);
  Alcotest.(check int) "no respawns" 0 o.Supervise.respawns;
  Alcotest.(check int) "no quarantine" 0 (List.length o.Supervise.quarantined)

(* Each recoverable failure mode: slot 1's spawns misbehave until its first
   fault, every later spawn is clean — the run must still produce the full
   row set. The groups have two cells, so a worker that dies after its
   first row still owes one and the fault is seen. *)
let recoverable_argv misbehave ~slot ~attempt indices =
  if slot = 1 && attempt = 0 then sh (misbehave indices)
  else clean_argv ~slot ~attempt indices

let check_recovers name misbehave =
  let argv = recoverable_argv misbehave in
  let o = expect_ok (run_sh ~size:2 ~shards:2 ~argv 5) in
  Alcotest.check rows_t (name ^ ": all rows recovered") (complete 5) (sorted o);
  Alcotest.(check bool) (name ^ ": respawned") true (o.Supervise.respawns >= 1);
  Alcotest.(check int)
    (name ^ ": nothing quarantined")
    0
    (List.length o.Supervise.quarantined)

let test_crash_recovery () =
  check_recovers "crash" (fun indices ->
      match echoes indices with
      | e :: _ -> e ^ "; exit 7"
      | [] -> "exit 7")

let test_sigkill_recovery () =
  let sigkill indices =
    match echoes indices with
    | e :: _ -> e ^ "; kill -9 $$"
    | [] -> "kill -9 $$"
  in
  check_recovers "sigkill" sigkill;
  (* with one kill allowed, the blamed cell quarantines at once, and its
     reason names the signal as the OS does *)
  let config = { cfg with Supervise.max_retries = 1 } in
  let o =
    expect_ok (run_sh ~config ~size:2 ~shards:2 ~argv:(recoverable_argv sigkill) 5)
  in
  match o.Supervise.quarantined with
  | [ q ] ->
    Alcotest.(check bool)
      ("sigkill: reason names SIGKILL: " ^ q.Supervise.q_reason)
      true
      (Astring.String.is_infix ~affix:"killed by SIGKILL (9)" q.Supervise.q_reason)
  | qs -> Alcotest.failf "expected 1 quarantined cell, got %d" (List.length qs)

let test_garbage_recovery () =
  check_recovers "garbage" (fun _ -> "echo not-a-row; exec sleep 60")

let test_unexpected_index_recovery () =
  check_recovers "unexpected-index" (fun _ -> "echo 99:zz; exec sleep 60")

let test_partial_line_recovery () =
  check_recovers "partial-line" (fun indices ->
      Printf.sprintf "printf '%d:half-a-row'" (List.hd indices))

let test_hang_recovery () =
  let argv =
    recoverable_argv (fun indices ->
        match echoes indices with
        | e :: _ -> e ^ "; exec sleep 60"
        | [] -> "exec sleep 60")
  in
  let config = { cfg with Supervise.cell_timeout_s = 1.0 } in
  let o = expect_ok (run_sh ~config ~size:2 ~shards:2 ~argv 5) in
  Alcotest.check rows_t "hang: all rows recovered" (complete 5) (sorted o);
  Alcotest.(check bool) "hang: respawned" true (o.Supervise.respawns >= 1)

let test_poison_quarantine () =
  (* The cell with index 2 kills every worker that reaches it. It must be
     blamed (rows before it are streamed, so it is the head of the dead
     worker's pending list), quarantined after exactly max_retries kills,
     and the other four cells must survive. *)
  let poison = 2 in
  let argv ~slot:_ ~attempt:_ indices =
    let rec pre acc = function
      | [] -> (List.rev acc, false)
      | i :: _ when i = poison -> (List.rev acc, true)
      | i :: rest -> pre (Printf.sprintf "echo %d:v%d" i i :: acc) rest
    in
    let es, poisoned = pre [] indices in
    sh (String.concat "; " (es @ [ (if poisoned then "exit 3" else "exit 0") ]))
  in
  let config = { cfg with Supervise.max_retries = 2 } in
  let o = expect_ok (run_sh ~config ~shards:2 ~argv 5) in
  Alcotest.check rows_t "other rows intact"
    (List.filter (fun (i, _) -> i <> poison) (complete 5))
    (sorted o);
  match o.Supervise.quarantined with
  | [ q ] ->
    Alcotest.(check int) "poison cell" poison q.Supervise.q_index;
    Alcotest.(check string) "named" "cell-2" q.Supervise.q_name;
    Alcotest.(check int) "after max_retries kills" 2 q.Supervise.q_kills
  | qs -> Alcotest.failf "expected 1 quarantined cell, got %d" (List.length qs)

let test_spawn_failure_degrades_serial () =
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  let o =
    expect_ok
      (run_sh ~spawn
         ~serial_run:(fun i -> Printf.sprintf "v%d" i)
         ~shards:2 ~argv:clean_argv 4)
  in
  Alcotest.check rows_t "all rows, in-process" (complete 4) (sorted o);
  Alcotest.(check int) "all degraded" 4 o.Supervise.degraded_serial

let test_spawn_failure_without_fallback_errors () =
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  match run_sh ~spawn ~shards:2 ~argv:clean_argv 4 with
  | Ok _ -> Alcotest.fail "expected an error without serial_run"
  | Error e ->
    Alcotest.(check bool) "names the worker" true
      (Astring.String.is_infix ~affix:"could not be spawned" e)

let test_resume_schedules_remainder () =
  (* Rows 0 and 1 are replayed from a journal (the duplicate and the
     out-of-roster index must be dropped); only 2 and 3 may be scheduled,
     and the journal sink receives the replayed rows first so the new
     journal is a complete checkpoint. *)
  let journaled = ref [] in
  let scheduled = ref [] in
  let argv ~slot ~attempt indices =
    scheduled := indices @ !scheduled;
    clean_argv ~slot ~attempt indices
  in
  let o =
    expect_ok
      (run_sh
         ~journal:(fun l -> journaled := l :: !journaled)
         ~resume_rows:
           [ (0, "v0"); (1, "v1"); (1, "dup-ignored"); (9, "out-of-roster") ]
         ~shards:2 ~argv 4)
  in
  Alcotest.check rows_t "all rows" (complete 4) (sorted o);
  Alcotest.(check (list int)) "resume provenance" [ 0; 1 ] o.Supervise.resumed;
  Alcotest.(check (list int)) "only the remainder scheduled" [ 2; 3 ]
    (List.sort compare !scheduled);
  let lines = List.rev !journaled in
  Alcotest.(check int) "journal is complete" 4 (List.length lines);
  Alcotest.(check (list string)) "replayed rows re-journaled first"
    [ "0:v0"; "1:v1" ]
    [ List.nth lines 0; List.nth lines 1 ]

(* --- the work queue --- *)

(* The fake worker answers every cell with its own pid, so cells that
   share a value ran in one process. *)
let pid_argv ~slot:_ ~attempt:_ indices =
  sh
    (String.concat "; "
       (List.map (fun i -> Printf.sprintf "echo %d:$$" i) indices))

let test_group_runs_in_one_process () =
  let groups = [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] in
  let o = expect_ok (run_groups ~shards:2 ~argv:pid_argv groups) in
  Alcotest.(check (list int)) "every cell emitted" [ 0; 1; 2; 3; 4; 5 ]
    (List.map fst (sorted o));
  List.iter
    (fun g ->
      let pids =
        List.sort_uniq compare
          (List.map (fun i -> List.assoc i o.Supervise.rows) g)
      in
      Alcotest.(check int)
        (Printf.sprintf "group of %d cell(s): one process" (List.length g))
        1 (List.length pids))
    groups

(* One long group beside four short ones on two lineages: the lineage
   that drew the long group keeps it, the other takes every short one as
   soon as its previous process exits. *)
let test_free_lineage_takes_next_group () =
  let taken = ref [] in
  let argv ~slot ~attempt:_ indices =
    taken := (slot, indices) :: !taken;
    let body = String.concat "; " (echoes indices) in
    sh (if indices = [ 0 ] then "sleep 2; " ^ body else body)
  in
  let o =
    expect_ok (run_groups ~shards:2 ~argv [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ])
  in
  Alcotest.check rows_t "all rows" (complete 5) (sorted o);
  let of_slot k =
    List.rev
      (List.filter_map (fun (s, g) -> if s = k then Some g else None) !taken)
  in
  Alcotest.(check (list (list int))) "lineage 1 runs the long group" [ [ 0 ] ]
    (of_slot 1);
  Alcotest.(check (list (list int))) "lineage 2 takes the short groups in turn"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    (of_slot 2)

let test_clean_queue_no_respawns () =
  let spawns = ref [] in
  let argv ~slot ~attempt indices =
    spawns := attempt :: !spawns;
    clean_argv ~slot ~attempt indices
  in
  let o = expect_ok (run_sh ~shards:2 ~argv 6) in
  Alcotest.check rows_t "all rows" (complete 6) (sorted o);
  Alcotest.(check int) "one process per group" 6 (List.length !spawns);
  Alcotest.(check bool) "every spawn a first attempt" true
    (List.for_all (( = ) 0) !spawns);
  Alcotest.(check int) "no respawns" 0 o.Supervise.respawns

let string_codec =
  {
    Shard.encode = (fun s -> Tce_obs.Json.Str s);
    decode = (function Tce_obs.Json.Str s -> Ok s | _ -> Error "not a string");
    cache_form = Fun.id;
  }

(* A worker row whose index lies outside the matrix is a worker fault for
   the shared parent too: with a cache it must not reach the key table. *)
let test_out_of_range_row_is_worker_fault () =
  let line =
    Tce_obs.Json.to_string (Shard.row_to_json string_codec ~index:5 "x")
  in
  let cells =
    {
      Shard.codec = string_codec;
      (* sh -c SCRIPT ignores the parent's trailing arguments *)
      argv = [ "-c"; Printf.sprintf "echo '%s'; exec sleep 60" line ];
      count = 1;
      name = (fun _ -> "only");
      workload = (fun _ -> "only");
      cost = (fun _ -> None);
      key = (fun _ -> "k");
      run = (fun _ -> "v");
    }
  in
  let cache_dir = Filename.temp_file "tce-shard-cache" "" in
  Sys.remove cache_dir;
  let s =
    Shard.run ~exe:"/bin/sh" ~log_dir
      ~supervise:{ cfg with Supervise.max_retries = 1 }
      ~journal_path:(Filename.temp_file "tce-shard-journal" ".jsonl")
      ~cache:(Cache.create ~dir:cache_dir ())
      ~shards:2 ~worker_args:[] cells
  in
  Alcotest.(check (list int)) "the cell is blamed and quarantined" [ 0 ]
    (List.map (fun q -> q.Supervise.q_index) s.Shard.quarantined)

(* --- the crash-safe journal and its header --- *)

(* A matrix of string cells over the cache keys [keys], driven in this
   process: every spawn fails (and is counted), so the supervised mode
   degrades to serial and no worker starts. [ran] counts the cells it
   computed. *)
let string_cells ?(ran = ref 0) keys =
  let keys = Array.of_list keys in
  {
    Shard.codec = string_codec;
    argv = "bench" :: Array.to_list keys;
    count = Array.length keys;
    name = (fun i -> keys.(i));
    workload = (fun i -> keys.(i));
    cost = (fun _ -> None);
    key = (fun i -> keys.(i));
    run =
      (fun i ->
        incr ran;
        "row-" ^ keys.(i));
  }

let run_strings ?(spawned = ref 0) ?resume ~journal_path cells =
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    incr spawned;
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  Shard.run ~spawn ~log_dir ~supervise:cfg ~journal_path ?resume ~shards:2
    ~worker_args:[] cells

let write_lines path ?(torn = "") lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      output_string oc torn)

(* The journal of the [a b c] matrix: its header, then one row per cell. *)
let abc_journal () =
  let path = Filename.temp_file "tce-journal" ".jsonl" in
  ignore (run_strings ~journal_path:path (string_cells [ "a"; "b"; "c" ]));
  match Store.journal_lines path with
  | Ok lines -> (path, lines)
  | Error e -> Alcotest.fail e

let test_journal_drops_torn_line () =
  let path, lines = abc_journal () in
  Alcotest.(check int) "a header and three rows" 4 (List.length lines);
  (* one journal header, then row documents *)
  List.iter2
    (fun kind line ->
      match
        Result.bind (Tce_obs.Json.of_string line)
          (Tce_obs.Export.open_document ~kind)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ "journal"; "row"; "row"; "row" ] lines;
  (* simulate a crash mid-append: the header and two rows, then a final
     line with no newline *)
  let kept = List.filteri (fun i _ -> i < 3) lines in
  write_lines path ~torn:"torn-fragment" kept;
  (match Store.journal_lines path with
  | Ok lines -> Alcotest.(check (list string)) "torn final line dropped" kept lines
  | Error e -> Alcotest.fail e);
  (* the same matrix resumes from it: two rows replayed, one computed *)
  let ran = ref 0 in
  let s =
    run_strings ~resume:path ~journal_path:path
      (string_cells ~ran [ "a"; "b"; "c" ])
  in
  Alcotest.(check (list int)) "two rows replayed" [ 0; 1 ] s.Shard.resumed;
  Alcotest.(check int) "only the third cell computed" 1 !ran;
  Alcotest.(check (list (pair int string)))
    "every row, in index order"
    [ (0, "row-a"); (1, "row-b"); (2, "row-c") ]
    s.Shard.rows;
  Sys.remove path

(* Resuming [path] under [cells] must fail before anything runs, with one
   line that names the file and [names] (both matrices), and leave the
   file as it was although it is also this run's journal. *)
let expect_refused ~path ~names cells =
  let before = In_channel.with_open_bin path In_channel.input_all in
  let spawned = ref 0 and ran = ref 0 in
  (match run_strings ~spawned ~resume:path ~journal_path:path (cells ran) with
  | _ -> Alcotest.fail "the journal was replayed"
  | exception Failure msg ->
    Alcotest.(check bool) "one line" false (String.contains msg '\n');
    List.iter
      (fun sub ->
        if not (Astring.String.is_infix ~affix:sub msg) then
          Alcotest.failf "%S does not name %s" msg sub)
      (path :: names));
  Alcotest.(check int) "no worker spawned" 0 !spawned;
  Alcotest.(check int) "no cell computed" 0 !ran;
  Alcotest.(check string) "the journal is untouched" before
    (In_channel.with_open_bin path In_channel.input_all)

let test_resume_refuses_foreign_journal () =
  let path, _ = abc_journal () in
  expect_refused ~path ~names:[ "bench a b c"; "bench a b d" ] (fun ran ->
      string_cells ~ran [ "a"; "b"; "d" ]);
  Sys.remove path

let test_resume_refuses_reordered_matrix () =
  let path, _ = abc_journal () in
  expect_refused ~path ~names:[ "bench a b c"; "bench c b a" ] (fun ran ->
      string_cells ~ran [ "c"; "b"; "a" ]);
  Sys.remove path

(* The fault campaign's cells are keyed by their injector seeds, so a
   journal of one --fault-seed is refused by the same roster under
   another. *)
let test_campaign_resume_refuses_other_seed () =
  let roster =
    List.filter_map Tce_workloads.Workloads.by_name [ "controlflow-recursive" ]
  in
  let spec =
    match Tce_fault.Spec.parse "cc-drop" with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let path = Filename.temp_file "tce-faults-journal" ".jsonl" in
  let spawned = ref 0 in
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    incr spawned;
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  let campaign ?resume seed =
    Campaign.run ~spawn ~log_dir ~supervise:cfg ~journal_path:path ?resume
      ~spec ~seed ~shards:2 ~worker_args:[] roster
  in
  ignore (campaign 1);
  let before = In_channel.with_open_bin path In_channel.input_all in
  let tried = !spawned in
  (match campaign ~resume:path 2 with
  | _ -> Alcotest.fail "seed 1's journal was replayed under seed 2"
  | exception Failure msg ->
    Alcotest.(check bool) "names the journal" true
      (Astring.String.is_infix ~affix:path msg));
  Alcotest.(check int) "no worker spawned" tried !spawned;
  Alcotest.(check string) "the journal is untouched" before
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path

let test_resume_refuses_headerless_journal () =
  let path, lines = abc_journal () in
  write_lines path (List.tl lines);
  expect_refused ~path ~names:[ "bench a b c" ] (fun ran ->
      string_cells ~ran [ "a"; "b"; "c" ]);
  (* a journal with no complete line is no refusal: it resumes nothing *)
  write_lines path ~torn:"torn-fragment" [];
  let s =
    run_strings ~resume:path ~journal_path:path
      (string_cells [ "a"; "b"; "c" ])
  in
  Alcotest.(check (list int)) "nothing replayed" [] s.Shard.resumed;
  Alcotest.(check int) "every row computed" 3 (List.length s.Shard.rows);
  Sys.remove path

(* --- EINTR restart (Supervise.run under a 5ms interval timer) --- *)

let test_supervised_run_eintr_restart () =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let set v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = v; Unix.it_value = v })
  in
  set 0.005;
  let argv ~slot:_ ~attempt:_ indices =
    sh (String.concat "; " ("sleep 0.3" :: echoes indices))
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        set 0.0;
        Sys.set_signal Sys.sigalrm old)
      (fun () -> run_sh ~shards:2 ~argv 2)
  in
  match result with
  | Ok o ->
    Alcotest.check rows_t "both workers drained under signal fire"
      (complete 2) (sorted o);
    Alcotest.(check int) "no worker blamed for a signal" 0
      o.Supervise.respawns
  | Error e -> Alcotest.failf "supervised run under EINTR: %s" e

(* --- shard logs --- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Per-shard stderr logs are captured through a parent-side pipe and
   every line is prefixed with a UTC timestamp, so multi-worker logs
   interleave chronologically. *)
let test_shard_logs_utc_stamped () =
  let argv ~slot:_ ~attempt:_ indices =
    sh
      (Printf.sprintf "echo warn: something odd >&2; %s"
         (String.concat "; " (echoes indices)))
  in
  let o = expect_ok (run_sh ~size:2 ~shards:1 ~argv 2) in
  Alcotest.check rows_t "rows intact" (complete 2) (sorted o);
  let lines = read_lines (Filename.concat log_dir "shard-1.log") in
  Alcotest.(check int) "one stderr line" 1 (List.length lines);
  let line = List.hd lines in
  Alcotest.(check bool) "UTC stamp prefix" true
    (String.length line > 25
    && line.[4] = '-'
    && line.[7] = '-'
    && line.[10] = 'T'
    && line.[23] = 'Z'
    && Astring.String.is_suffix ~affix:"warn: something odd" line)

(* --- merge_rows diagnostics and quarantine holes --- *)

let test_merge_names_missing () =
  let names i = List.nth_opt [ "fib"; "tak"; "deopt-storm" ] i in
  match Shard.merge_rows ~names ~what:"bench" ~expected:3 [ (1, "b") ] with
  | Ok _ -> Alcotest.fail "expected a missing-rows error"
  | Error e ->
    let has affix = Astring.String.is_infix ~affix e in
    Alcotest.(check bool) "names the workloads" true
      (has "fib" && has "deopt-storm");
    Alcotest.(check bool) "keeps the raw indices" true (has "indices 0, 2")

let test_merge_quarantined_holes () =
  match
    Shard.merge_rows ~quarantined:[ 1 ] ~what:"bench" ~expected:3
      [ (2, "c"); (0, "a") ]
  with
  | Ok merged ->
    Alcotest.(check (list string)) "quarantined slot skipped, order kept"
      [ "a"; "c" ] merged
  | Error e -> Alcotest.fail e

(* --- quarantine-aware gate --- *)

let mk_workload name body =
  Tce_workloads.Workload.make ~suite:Tce_workloads.Workload.Octane
    ~selected:false name body

let gate_roster =
  [
    mk_workload "sup-a"
      "function bench() { var s = 0; for (var i = 0; i < 20; i++) { s = (s + i) & 255; } return s; }";
    mk_workload "sup-b"
      "function bench() { var s = 1; for (var i = 0; i < 20; i++) { s = (s + i * 2) & 255; } return s; }";
  ]

let test_gate_quarantine_aware () =
  let rows = (Runner.run_suite gate_roster).Record.workloads in
  let baseline = Store.make_run ~host_wall_seconds:0.0 rows in
  let surviving =
    List.filter (fun (r : Record.workload) -> r.Record.name <> "sup-b") rows
  in
  let quarantined =
    [ { Supervise.q_index = 1; q_name = "sup-b"; q_kills = 3; q_reason = "t" } ]
  in
  let current =
    Store.make_run ~host_wall_seconds:0.0 ~quarantined surviving
  in
  let report = Gate.check_run ~baseline ~current () in
  Alcotest.(check bool) "quarantine does not fail the gate" true report.Gate.ok;
  Alcotest.(check (list string)) "reported as quarantined" [ "sup-b" ]
    report.Gate.quarantined;
  Alcotest.(check (list string)) "not reported missing" [] report.Gate.missing;
  Alcotest.(check (list string)) "and excluded: completed rows only"
    [ "sup-a" ]
    (List.map (fun ((b : Record.workload), _) -> b.Record.name) report.Gate.compared);
  (* the same absence without a quarantine record still fails *)
  let bare = Store.make_run ~host_wall_seconds:0.0 surviving in
  let report = Gate.check_run ~baseline ~current:bare () in
  Alcotest.(check bool) "unexplained absence still fails" false report.Gate.ok;
  Alcotest.(check (list string)) "as missing" [ "sup-b" ] report.Gate.missing

(* --- recovery provenance JSON round-trip --- *)

let test_record_provenance_roundtrip () =
  let rows = (Runner.run_suite gate_roster).Record.workloads in
  let quarantined =
    [ { Supervise.q_index = 4; q_name = "poison"; q_kills = 3; q_reason = "r" } ]
  in
  let run =
    Store.make_run ~host_wall_seconds:0.0 ~quarantined
      ~resumed_rows:[ 0; 2 ] rows
  in
  (match Record.run_of_json (Record.run_to_json run) with
  | Ok back ->
    Alcotest.(check bool) "round-trips" true (run = back)
  | Error e -> Alcotest.fail e);
  (* a clean run's document must not mention the recovery fields at all,
     so pre-supervision baselines keep their bytes *)
  let clean = Store.make_run ~host_wall_seconds:0.0 rows in
  let s = Tce_obs.Json.to_string (Record.run_to_json clean) in
  Alcotest.(check bool) "clean run omits quarantined" false
    (Astring.String.is_infix ~affix:"quarantined" s);
  Alcotest.(check bool) "clean run omits resumed_rows" false
    (Astring.String.is_infix ~affix:"resumed_rows" s);
  (* normalize keeps the quarantine (it changes the result set) and drops
     the resume provenance (the rows are identical either way) *)
  let n = Record.normalize_run run in
  Alcotest.(check int) "normalize keeps quarantine" 1
    (List.length n.Record.quarantined);
  Alcotest.(check (list int)) "normalize drops resume" [] n.Record.resumed_rows

(* --- chaos spec parsing and deterministic arming --- *)

let test_chaos_parse () =
  (match Supervise.Chaos.parse "sigkill-after:2" with
  | Ok c ->
    Alcotest.(check string) "round-trips" "sigkill-after:2"
      (Supervise.Chaos.to_string c)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Supervise.Chaos.parse bad)))
    [ "bogus:1"; "crash-after"; "crash-after:-1"; "crash-after:x" ]

(* The drill is aimed, by seed, at one scheduled cell: whatever the seed,
   some spawn covers it, so the drill cannot silently disarm. *)
let test_chaos_arms_one_scheduled_cell () =
  let module C = Supervise.Chaos in
  let scheduled = [ 0; 1; 2; 3 ] in
  let spawns = [ [ 0; 2 ]; [ 1; 3 ] ] in
  let args = C.arm ~mode:C.Sigkill_after ~seed:42 scheduled in
  let armed = List.filter_map args spawns in
  Alcotest.(check int) "exactly one spawn armed" 1 (List.length armed);
  Alcotest.(check bool) "respawns are never armed" true
    (List.for_all (fun g -> args g = None) spawns);
  (* poison arms every spawn that covers its cell, with the same cell *)
  let p = C.arm ~mode:C.Poison ~seed:42 scheduled in
  let first = List.map p spawns in
  Alcotest.(check int) "poison arms the spawns that cover its cell" 1
    (List.length (List.filter Option.is_some first));
  Alcotest.(check bool) "poison is persistent across attempts" true
    (List.map p spawns = first);
  (* the same seed aims at the same cell; recoverable modes fire just
     before its row *)
  for seed = 0 to 31 do
    let target =
      match C.arm ~mode:C.Poison ~seed scheduled scheduled with
      | Some [ "--chaos"; spec ] -> (
        match C.parse spec with
        | Ok { C.arg; _ } -> arg
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.failf "seed %d: poison armed no spawn" seed
    in
    Alcotest.(check (option (list string)))
      (Printf.sprintf "seed %d: fires before the target's row" seed)
      (Some [ "--chaos"; Printf.sprintf "sigkill-after:%d" target ])
      (C.arm ~mode:C.Sigkill_after ~seed scheduled scheduled);
    let singles = List.map (fun i -> [ i ]) scheduled in
    Alcotest.(check (list (option (list string))))
      (Printf.sprintf "seed %d: only the target's own spawn armed" seed)
      (List.map
         (fun i ->
           if i = target then Some [ "--chaos"; "sigkill-after:0" ] else None)
         scheduled)
      (List.map (C.arm ~mode:C.Sigkill_after ~seed scheduled) singles)
  done

(* --- end-to-end over the real bench binary --- *)

(* Resolved relative to this test binary, not the cwd, so the suite works
   both under `dune runtest` (cwd _build/default/test) and `dune exec`
   from the repo root. A missing exe must fail loudly: spawn failure would
   otherwise degrade to in-process serial and mask the chaos path. *)
let bench_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let require_bench_exe () =
  if not (Sys.file_exists bench_exe) then
    Alcotest.failf "bench binary not found at %s" bench_exe

let e2e_roster =
  List.filter_map Tce_workloads.Workloads.by_name
    [ "controlflow-recursive"; "deopt-storm"; "stanford-crypto-ccm";
      "date-format-xparb" ]

let e2e_cfg =
  { cfg with Supervise.cell_timeout_s = 120.0; backoff_base_s = 0.01 }

let normalized_json r =
  Tce_obs.Json.to_string (Record.run_to_json (Record.normalize_run r))

let e2e_serial = lazy (Runner.run_suite e2e_roster)

let tmp_journal () = Filename.temp_file "tce-bench-journal" ".jsonl"

(* The roster on supervised bench/main.exe workers, the way [bench]
   drives it: Shard.run over Runner.bench_cells, stamped by Runner.record. *)
let supervised ?spawn ?(supervise = e2e_cfg) ?(journal_path = tmp_journal ()) ?resume
    ?chaos ~shards roster =
  fst @@ Runner.record ~shards ~cell:Fun.id @@ fun () ->
  Shard.run ~exe:bench_exe ?spawn ~log_dir ~supervise ~journal_path ?resume ?chaos
    ~shards ~worker_args:[] (Runner.bench_cells roster)

let test_e2e_chaos_sigkill_byte_identical () =
  require_bench_exe ();
  let serial = Lazy.force e2e_serial in
  let sup =
    supervised ~chaos:(Supervise.Chaos.Sigkill_after, 7) ~shards:2 e2e_roster
  in
  Alcotest.(check string) "chaos-recovered run byte-identical to serial"
    (normalized_json serial) (normalized_json sup)

(* More lineages than workloads: the drill is aimed at a cell, not at a
   lineage that may have drawn no work, so every seed fires and heals. *)
let test_e2e_chaos_fires_beyond_the_roster () =
  require_bench_exe ();
  let roster =
    List.filter_map Tce_workloads.Workloads.by_name
      [ "stanford-crypto-ccm"; "date-format-xparb" ]
  in
  let serial = Runner.run_suite roster in
  List.iter
    (fun seed ->
      let spawns = ref 0 in
      let spawn ~exe ~argv ~stdout ~stderr =
        incr spawns;
        Supervise.default_spawn ~exe ~argv ~stdout ~stderr
      in
      let sup =
        supervised ~spawn ~chaos:(Supervise.Chaos.Sigkill_after, seed) ~shards:4 roster
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: a worker was killed and respawned" seed)
        true (!spawns > List.length roster);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: healed run byte-identical to serial" seed)
        (normalized_json serial) (normalized_json sup))
    [ 4; 6 ]

let test_e2e_poison_quarantines () =
  require_bench_exe ();
  let sup =
    supervised
      ~supervise:{ e2e_cfg with Supervise.max_retries = 1 }
      ~chaos:(Supervise.Chaos.Poison, 7) ~shards:2 e2e_roster
  in
  Alcotest.(check int) "one cell quarantined" 1
    (List.length sup.Record.quarantined);
  Alcotest.(check int) "the other three rows intact" 3
    (List.length sup.Record.workloads)

let test_e2e_resume_from_truncated_journal () =
  require_bench_exe ();
  let serial = Lazy.force e2e_serial in
  let journal_path = tmp_journal () in
  let full =
    supervised ~journal_path ~shards:2 e2e_roster
  in
  Alcotest.(check string) "full supervised run byte-identical"
    (normalized_json serial) (normalized_json full);
  (* keep the header and two complete rows plus a torn fragment, as a
     parent crash would *)
  let lines =
    match Store.journal_lines journal_path with
    | Ok (h :: a :: b :: _) -> [ h; a; b ]
    | Ok _ -> Alcotest.fail "journal too short"
    | Error e -> Alcotest.fail e
  in
  let truncated = Filename.temp_file "tce-bench-journal-torn" ".jsonl" in
  let oc = open_out truncated in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  output_string oc "{\"torn";
  close_out oc;
  let resumed =
    supervised ~resume:truncated ~shards:2 e2e_roster
  in
  Alcotest.(check string) "resumed run byte-identical to serial"
    (normalized_json serial) (normalized_json resumed)

(* The sharded campaign on the shared parent: the same cells, field for
   field and in index order, as the in-process campaign; then, over the
   cache the first run warmed, no worker at all. *)
let campaign_roster =
  List.filter_map Tce_workloads.Workloads.by_name
    [ "stanford-crypto-ccm"; "deopt-storm"; "controlflow-recursive" ]

let test_e2e_sharded_campaign () =
  require_bench_exe ();
  let seed = 1024279 in
  let cells_t =
    Alcotest.testable
      (fun ppf (c : Campaign.cell) ->
        Format.fprintf ppf "%s×%s" c.Campaign.workload c.Campaign.point)
      ( = )
  in
  let serial = Campaign.run ~seed campaign_roster in
  let cache_dir = Filename.temp_file "tce-campaign-cache" "" in
  Sys.remove cache_dir;
  let cache = Cache.create ~dir:cache_dir () in
  let sharded ?spawn () =
    Campaign.parent ~exe:bench_exe ?spawn ~log_dir ~supervise:e2e_cfg
      ~journal_path:(tmp_journal ()) ~cache ~seed ~shards:2
      ~worker_args:[ "--fault-seed"; string_of_int seed ]
      campaign_roster
  in
  Alcotest.(check (list cells_t)) "sharded cells identical to in-process"
    serial.Campaign.cells (sharded ()).Campaign.cells;
  let spawned = ref 0 in
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    incr spawned;
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  let warm = sharded ~spawn () in
  Alcotest.(check int) "a fully cached campaign starts no worker" 0 !spawned;
  Alcotest.(check (list cells_t)) "cached cells identical to in-process"
    serial.Campaign.cells warm.Campaign.cells

let () =
  Alcotest.run "supervise"
    [
      ( "worker-pool",
        [
          Alcotest.test_case "clean supervised run" `Quick test_clean_run;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "sigkill recovery" `Quick test_sigkill_recovery;
          Alcotest.test_case "garbage-line recovery" `Quick
            test_garbage_recovery;
          Alcotest.test_case "unexpected-index recovery" `Quick
            test_unexpected_index_recovery;
          Alcotest.test_case "partial-final-line recovery" `Quick
            test_partial_line_recovery;
          Alcotest.test_case "hang recovery (deadline)" `Quick
            test_hang_recovery;
          Alcotest.test_case "poison cell quarantines" `Quick
            test_poison_quarantine;
          Alcotest.test_case "spawn failure degrades to serial" `Quick
            test_spawn_failure_degrades_serial;
          Alcotest.test_case "spawn failure without fallback errors" `Quick
            test_spawn_failure_without_fallback_errors;
          Alcotest.test_case "resume schedules only the remainder" `Quick
            test_resume_schedules_remainder;
          Alcotest.test_case "out-of-range row index is a worker fault"
            `Quick test_out_of_range_row_is_worker_fault;
        ] );
      ( "queue",
        [
          Alcotest.test_case "a group runs in one process" `Quick
            test_group_runs_in_one_process;
          Alcotest.test_case "a free lineage takes the next group" `Quick
            test_free_lineage_takes_next_group;
          Alcotest.test_case "clean run over more groups than lineages"
            `Quick test_clean_queue_no_respawns;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn final line dropped" `Quick
            test_journal_drops_torn_line;
          Alcotest.test_case "resume refuses another matrix's journal" `Quick
            test_resume_refuses_foreign_journal;
          Alcotest.test_case "resume refuses a reordered matrix" `Quick
            test_resume_refuses_reordered_matrix;
          Alcotest.test_case "resume refuses a headerless journal" `Quick
            test_resume_refuses_headerless_journal;
          Alcotest.test_case "resume refuses another fault seed's journal"
            `Quick test_campaign_resume_refuses_other_seed;
        ] );
      ( "eintr",
        [
          Alcotest.test_case "supervised run survives interval timer" `Quick
            test_supervised_run_eintr_restart;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "shard logs UTC-stamped" `Quick
            test_shard_logs_utc_stamped;
        ] );
      ( "merge",
        [
          Alcotest.test_case "missing rows named" `Quick
            test_merge_names_missing;
          Alcotest.test_case "quarantined holes skipped" `Quick
            test_merge_quarantined_holes;
        ] );
      ( "gate",
        [
          Alcotest.test_case "quarantine warns, does not fail" `Quick
            test_gate_quarantine_aware;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "JSON round-trip + clean-run bytes" `Quick
            test_record_provenance_roundtrip;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec parsing" `Quick test_chaos_parse;
          Alcotest.test_case "deterministic arming" `Quick
            test_chaos_arms_one_scheduled_cell;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "chaos sigkill byte-identical" `Slow
            test_e2e_chaos_sigkill_byte_identical;
          Alcotest.test_case "chaos fires with more shards than workloads"
            `Slow test_e2e_chaos_fires_beyond_the_roster;
          Alcotest.test_case "poison quarantines, rest intact" `Slow
            test_e2e_poison_quarantines;
          Alcotest.test_case "resume from truncated journal" `Slow
            test_e2e_resume_from_truncated_journal;
          Alcotest.test_case "sharded campaign matches in-process" `Slow
            test_e2e_sharded_campaign;
        ] );
    ]
