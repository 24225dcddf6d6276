(* End-to-end tests of the command-line interface: spawn the real
   bench/main.exe in a fresh temporary directory as its cwd and check
   exit codes, error messages and the files it writes.
   (a) a misspelt option fails its subcommand and is named on stderr;
   (b) an unknown experiment name is a command-line error;
   (c) `bench --profile` is a plain flag: the workload after it is run,
       and the record, PROF_latest.json and the folded stacks land in cwd;
   (d) `config` prints the simulated core exactly as Config.pp does;
   (e) `check` with a workload the baseline lacks fails and names it;
   (f) `bench --resume` of a journal with no header, or a malformed one,
       fails before anything runs, in one stderr line naming the journal,
       the run's matrix and the bad header field, and writes nothing. *)

let bench_exe =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"
  in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* Absolute, because the binary runs in a temporary cwd. *)
let baseline =
  let p =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../results/baseline.json"
  in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let fresh_dir () =
  let d = Filename.temp_file "tce-cli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run the binary with [args] in a fresh directory and pass [check] that
   directory, the exit code, stdout and stderr; the directory is removed
   afterwards. The captured streams are kept outside it, so [check] can
   list exactly what the binary wrote. *)
let spawn args check =
  if not (Sys.file_exists bench_exe) then
    Alcotest.failf "bench binary not found at %s" bench_exe;
  let dir = fresh_dir () in
  let out = Filename.temp_file "tce-cli" ".out"
  and err = Filename.temp_file "tce-cli" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_w out and fd_err = open_w err in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close fd_out;
        Unix.close fd_err)
      (fun () ->
        Unix.create_process bench_exe
          (Array.of_list (bench_exe :: args))
          Unix.stdin fd_out fd_err)
  in
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "killed by signal %d" s
  in
  let o = read out and e = read err in
  List.iter Sys.remove [ out; err ];
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> check dir code o e)

let contains ~sub s = Astring.String.is_infix ~affix:sub s

(* --- (a) misspelt options --- *)

let test_misspelt_options () =
  List.iter
    (fun (cmd, bad) ->
      spawn [ cmd; bad; "richards" ] @@ fun _ code _ err ->
      if code = 0 then Alcotest.failf "%s %s exited 0" cmd bad;
      if not (contains ~sub:bad err) then
        Alcotest.failf "%s %s: stderr does not name the option:\n%s" cmd bad err)
    [
      ("run", "--no-jitt");
      ("bench", "--determinstic");
      ("check", "--baselne");
      ("sweep", "--csvv");
      ("faults", "--fault-sed");
    ]

(* --- (b) experiment names --- *)

let test_unknown_experiment () =
  spawn [ "fig"; "nosuch" ] @@ fun _ code _ err ->
  Alcotest.(check bool) "fig nosuch fails" true (code <> 0);
  Alcotest.(check bool) "names the bad experiment" true (contains ~sub:"nosuch" err)

(* --- (c) bench --profile is a flag --- *)

(* The second order is the one an optional-value option would get wrong:
   it would take [richards] as its value and run the whole roster. *)
let test_bench_profile_flag () =
  List.iter
    (fun args ->
      spawn ("bench" :: "--no-cache" :: args) @@ fun dir code _ err ->
      if code <> 0 then Alcotest.failf "bench exited %d:\n%s" code err;
      (match Tce_runner.Store.load (Filename.concat dir "F") with
      | Error e -> Alcotest.failf "record F: %s" e
      | Ok run ->
        Alcotest.(check (list string))
          "exactly the named workload" [ "richards" ]
          (List.map
             (fun (w : Tce_runner.Record.workload) -> w.Tce_runner.Record.name)
             run.Tce_runner.Record.workloads));
      Alcotest.(check (list string))
        "files written to cwd"
        [ "F"; "PROF_latest.json"; "bench_profile.folded" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))
    [
      [ "--profile"; "--out"; "F"; "richards" ];
      [ "--out"; "F"; "--profile"; "richards" ];
    ]

(* --- (d) config --- *)

let test_config () =
  spawn [ "config" ] @@ fun _ code out _ ->
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string) "Config.pp Config.default"
    (Fmt.str "%a" Tce_machine.Config.pp Tce_machine.Config.default)
    out

(* --- (e) check with an unknown workload --- *)

(* A name that matches no baseline row fails the gate before anything
   runs, even beside a name that does match. *)
let test_check_unmatched_names () =
  List.iter
    (fun (names, unmatched) ->
      spawn ("check" :: "--baseline" :: baseline :: names)
      @@ fun _ code _ err ->
      if code <> 2 then
        Alcotest.failf "check %s exited %d, not 2:\n%s"
          (String.concat " " names) code err;
      List.iter
        (fun n ->
          if not (contains ~sub:n err) then
            Alcotest.failf "stderr does not name %s:\n%s" n err)
        unmatched)
    [
      ([ "richards"; "nosuch" ], [ "nosuch" ]);
      ([ "nosuch"; "richards"; "other" ], [ "nosuch"; "other" ]);
    ]

(* --- (f) bench --resume refuses a journal it cannot pin --- *)

let test_resume_refuses_headerless_journal () =
  List.iter
    (fun (first, names) ->
      let journal = Filename.temp_file "tce-cli-journal" ".jsonl" in
      let text = first ^ "\n" in
      Out_channel.with_open_bin journal (fun oc -> output_string oc text);
      spawn [ "bench"; "--no-cache"; "--resume"; journal; "richards" ]
      @@ fun dir code _ err ->
      Alcotest.(check int) "exit" 1 code;
      Alcotest.(check int) "one stderr line" 1
        (List.length (String.split_on_char '\n' (String.trim err)));
      List.iter
        (fun sub ->
          if not (contains ~sub err) then
            Alcotest.failf "stderr does not name %s:\n%s" sub err)
        (journal :: "bench richards" :: names);
      Alcotest.(check (list string)) "nothing written" []
        (Array.to_list (Sys.readdir dir));
      Alcotest.(check string) "the journal is untouched" text (read journal);
      Sys.remove journal)
    [
      (* a row where the header belongs *)
      ( {|{"schema_version":5,"kind":"row","generator":"tce","data":{"index":0,"row":{}}}|},
        [] );
      (* a header whose cell count is a string *)
      ( {|{"schema_version":5,"kind":"journal","generator":"tce","data":{"argv":["bench","richards"],"cells":"2","keys":"0"}}|},
        [ {|"cells"|} ] );
    ]

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "misspelt option named" `Quick test_misspelt_options;
          Alcotest.test_case "unknown experiment" `Quick test_unknown_experiment;
          Alcotest.test_case "check names unmatched workloads" `Quick
            test_check_unmatched_names;
          Alcotest.test_case "resume refuses a headerless journal" `Quick
            test_resume_refuses_headerless_journal;
        ] );
      ( "outputs",
        [
          Alcotest.test_case "bench --profile is a flag" `Quick
            test_bench_profile_flag;
          Alcotest.test_case "config" `Quick test_config;
        ] );
    ]
