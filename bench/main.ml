(** The reproduction's one command-line interface (installed as [tcejs]):
    run a MiniJS program under the two-tier engine and inspect what the
    JIT made of it, regenerate the paper's tables and figures (DESIGN.md
    §4 indexes them), and drive the benchmark runner — the roster, the
    regression gate, the design-space sweep and the fault campaign.
    [main.exe --help] lists the subcommands; each has its own [--help]. *)

open Cmdliner
open Tce_metrics
module W = Tce_workloads.Workload
module Workloads = Tce_workloads.Workloads
module Cache = Tce_runner.Cache
module Chaos = Tce_runner.Supervise.Chaos
module Record = Tce_runner.Record
module Store = Tce_runner.Store
module Sweep = Tce_runner.Sweep
module Campaign = Tce_runner.Campaign

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [--fault-spec SPEC], parsed, with the text kept verbatim for workers. *)
let fault_spec_conv =
  Arg.conv'
    ( (fun s -> Result.map (fun spec -> (s, spec)) (Tce_fault.Spec.parse s)),
      fun ppf (s, _) -> Fmt.string ppf s )

(* --- run / disasm / opt-dump / classlist / config --- *)

let run_term =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let no_jit = Arg.(value & flag & info [ "no-jit" ] ~doc:"Pure interpreter.") in
  let no_mech =
    Arg.(value & flag & info [ "no-mechanism" ] ~doc:"Disable the Class Cache mechanism.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.") in
  let trace_file =
    Arg.(
      value
      & opt ~vopt:(Some "trace.json") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record engine events and write them to $(docv) (default \
             trace.json). Give $(docv) glued ($(b,--trace=FILE)): a \
             separate word is read as $(docv).")
  in
  let trace_format =
    Arg.(
      value
      & opt (enum [ ("json", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Trace output format: $(b,json) (one event per line) or \
             $(b,chrome) (trace_event JSON loadable in Perfetto / \
             chrome://tracing).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write engine counters as versioned JSON to $(docv) (- = stdout).")
  in
  let sample_cycles =
    Arg.(
      value
      & opt int 0
      & info [ "obs-sample-cycles" ] ~docv:"N"
          ~doc:
            "Sample counter tracks (deopts, Class-Cache occupancy, heap \
             bytes) every $(docv) simulated cycles; 0 disables sampling.")
  in
  let fault_spec =
    Arg.(
      value
      & opt (some fault_spec_conv) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Arm the deterministic fault injector with $(docv) (e.g. \
             $(b,lost-deopt:0.5,cc-evict:0.02); see lib/fault/README.md). \
             Fired faults and retire-path detections are reported on \
             stderr.")
  in
  let fault_seed =
    Arg.(
      value
      & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed of the fault injector's PRNG; a run is replayable from \
             (seed, spec) alone.")
  in
  let explain =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "explain" ] ~docv:"FILE"
          ~doc:
            "Record check attribution and explain every kept check and \
             deopt causal chain. Without $(docv) (or with $(b,-)) the text \
             report goes to stdout; with $(docv) a versioned \
             $(b,attr-report) JSON document is written instead.")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Attribute every simulated cycle to a (function, pc, cost) \
             site. Without $(docv) (or with $(b,-)) a text breakdown — \
             totals, cycles by cost kind and instruction label, hottest \
             sites — goes to stdout; with $(docv), collapsed-stack \
             flamegraph lines are written instead (load them in speedscope \
             or inferno).")
  in
  let profile_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:
            "Write the cycle-attribution profile as a versioned \
             $(b,prof-report) JSON document to $(docv) (- = stdout). \
             Implies profiling; combine with $(b,--profile) for the text \
             or folded view of the same run.")
  in
  let run file no_jit no_mech stats trace_file trace_format metrics_json
      sample_cycles fault_spec fault_seed explain profile profile_json =
    let src = read_file file in
    let trace =
      match trace_file with
      | Some _ -> Tce_obs.Trace.create ()
      | None -> Tce_obs.Trace.null
    in
    let attr =
      match explain with
      | Some _ -> Tce_attr.Ledger.create ()
      | None -> Tce_attr.Ledger.null
    in
    let fault =
      match fault_spec with
      | None -> Tce_fault.Injector.null
      | Some (_, spec) -> Tce_fault.Injector.create ~seed:fault_seed spec
    in
    let prof =
      if profile <> None || profile_json <> None then
        Tce_prof.Profile.create ()
      else Tce_prof.Profile.null
    in
    let config =
      {
        Tce_engine.Engine.default_config with
        jit = not no_jit;
        mechanism = not no_mech;
        trace;
        obs_sample_cycles = sample_cycles;
        fault;
        attr;
        prof;
      }
    in
    let t = Tce_engine.Engine.of_source ~config src in
    (try ignore (Tce_engine.Engine.run_main t) with
    | Tce_engine.Engine.Engine_error msg | Tce_engine.Runtime.Guest_error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      exit 1
    | Tce_minijs.Parser.Error (msg, pos) ->
      Printf.eprintf "parse error at %d:%d: %s\n" pos.Tce_minijs.Ast.line
        pos.Tce_minijs.Ast.col msg;
      exit 1);
    print_string (Tce_engine.Engine.output t);
    (match trace_file with
    | Some path ->
      Tce_obs.Sink.write_file ~path
        (Tce_obs.Sink.render ~format:trace_format
           ~counters:(Tce_obs.Sink.chrome_counters t.Tce_engine.Engine.snap)
           trace)
    | None -> ());
    (match metrics_json with
    | Some path -> Tce_obs.Export.to_file ~path (Export.engine_document t)
    | None -> ());
    (match explain with
    | None -> ()
    | Some dest ->
      let c = t.Tce_engine.Engine.counters in
      let checks_executed =
        List.map
          (fun k ->
            ( Tce_jit.Categories.check_kind_name k,
              c.Tce_machine.Counters.by_check_kind.(Tce_jit.Categories
                                                   .check_kind_index k + 1) ))
          Tce_jit.Categories.all_check_kinds
      in
      let cc_occupancy = Tce_core.Class_cache.set_occupancy t.Tce_engine.Engine.cc in
      let cc_conflicts = Tce_core.Class_cache.set_conflicts t.Tce_engine.Engine.cc in
      let program = Filename.basename file in
      if dest = "-" then
        print_string
          (Tce_attr.Aggregate.explain_text ~program ~checks_executed
             ~cc_occupancy ~cc_conflicts attr)
      else
        Tce_obs.Export.to_file ~path:dest
          (Tce_attr.Aggregate.report_json ~program ~checks_executed
             ~cc_occupancy ~cc_conflicts attr));
    (if Tce_prof.Profile.on prof then begin
       let cpi =
         config.Tce_engine.Engine.mach_cfg.Tce_machine.Config.baseline_cpi
       in
       let s =
         Tce_prof.Profile.summarize prof ~program:(Filename.basename file)
           ~mechanism:(not no_mech)
           ~machine_cycles:(Tce_engine.Engine.opt_cycles t)
           ~baseline_instrs:
             t.Tce_engine.Engine.counters.Tce_machine.Counters.baseline_instrs
           ~baseline_cpi:cpi ()
       in
       (match profile with
       | None -> ()
       | Some "-" -> print_string (Tce_prof.Report.text_report s)
       | Some path ->
         let oc = open_out path in
         output_string oc (Tce_prof.Profile.folded ~baseline_cpi:cpi prof);
         close_out oc);
       match profile_json with
       | None -> ()
       | Some path ->
         let p =
           {
             Tce_prof.Report.p_name = Filename.basename file;
             p_off = (if no_mech then Some s else None);
             p_on = (if no_mech then None else Some s);
           }
         in
         Tce_obs.Export.to_file ~path
           (Tce_prof.Report.suite_doc ~git_sha:(Store.git_sha ())
              ~config_hash:(Tce_engine.Engine.config_hash config)
              ~created_utc:(Store.timestamp_utc ()) [ p ])
     end);
    if Tce_fault.Injector.armed fault then
      Printf.eprintf "faults: %s\n" (Tce_fault.Injector.summary fault);
    if stats then begin
      let c = t.Tce_engine.Engine.counters in
      Printf.printf "--- stats ---\n";
      Printf.printf "optimized instructions: %d\n"
        (Tce_machine.Counters.opt_instrs c);
      List.iter
        (fun i ->
          let cat = Tce_jit.Categories.of_index i in
          Printf.printf "  %-22s %d\n" (Tce_jit.Categories.name cat)
            (Tce_machine.Counters.cat c cat))
        [ 0; 1; 2; 3; 4 ];
      Printf.printf "baseline instructions:  %d\n"
        c.Tce_machine.Counters.baseline_instrs;
      Printf.printf "optimized cycles:       %d\n" (Tce_engine.Engine.opt_cycles t);
      Printf.printf "deopts: %d (cc exceptions: %d), tier-ups: %d\n"
        c.Tce_machine.Counters.deopts c.Tce_machine.Counters.cc_exception_deopts
        c.Tce_machine.Counters.tierups;
      Printf.printf "class cache: %d accesses, hit rate %.4f%%\n"
        t.Tce_engine.Engine.cc.Tce_core.Class_cache.stats.accesses
        (100.0 *. Tce_core.Class_cache.hit_rate t.Tce_engine.Engine.cc);
      Printf.printf "hidden classes: %d\n"
        (Tce_vm.Hidden_class.Registry.class_count
           t.Tce_engine.Engine.heap.Tce_vm.Heap.reg)
    end;
    0
  in
  Term.(
    const run $ file $ no_jit $ no_mech $ stats $ trace_file $ trace_format
    $ metrics_json $ sample_cycles $ fault_spec $ fault_seed $ explain
    $ profile $ profile_json)

let run_cmd = Cmd.v (Cmd.info "run" ~doc:"Run a MiniJS program (the default).") run_term

let disasm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let disasm file =
    let prog = Tce_jit.Bc_compile.compile_source (read_file file) in
    Array.iter
      (fun fn -> Fmt.pr "%a@." Tce_jit.Bytecode.pp_func fn)
      prog.Tce_jit.Bytecode.funcs;
    0
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print the bytecode of a program.")
    Term.(const disasm $ file)

(* The program [input] names: the file at that path, else the roster
   workload of that name. *)
let program_source input =
  if Sys.file_exists input then read_file input
  else
    match Workloads.by_name input with
    | Some w -> w.W.source
    | None ->
      Printf.eprintf "%s: no such file or roster workload\n" input;
      exit 1

let program_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"A MiniJS file, or a roster workload name.")

(* Run a program to a warm state: main once, then bench() (when present)
   ten times, so hot functions are optimized and profiles populated. *)
let warm_engine ?config input =
  fst (Harness.warm ?config ~iterations:10 (program_source input))

let opt_dump_cmd =
  let fname = Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNCTION") in
  let no_mech =
    Arg.(value & flag & info [ "no-mechanism" ] ~doc:"Disable the Class Cache mechanism.")
  in
  let dump file fname no_mech =
    let config =
      { Tce_engine.Engine.default_config with mechanism = not no_mech }
    in
    let t = warm_engine ~config file in
    match Tce_jit.Bytecode.find_func t.Tce_engine.Engine.prog fname with
    | None ->
      Printf.eprintf "no such function: %s\n" fname;
      1
    | Some fn -> (
      match fn.Tce_jit.Bytecode.opt with
      | Some code ->
        Fmt.pr "%a@." Tce_jit.Lir.pp_func code;
        0
      | None ->
        Printf.eprintf
          "%s was not optimized (not hot, or optimization disabled)\n" fname;
        1)
  in
  Cmd.v
    (Cmd.info "opt-dump"
       ~doc:"Print the optimized LIR of a function (after a warm-up run).")
    Term.(const dump $ program_arg $ fname $ no_mech)

let classlist_cmd =
  let show input =
    let t = warm_engine input in
    let reg = t.Tce_engine.Engine.heap.Tce_vm.Heap.reg in
    let class_name id =
      if id = Tce_vm.Layout.smi_classid then "SMI"
      else
        match Tce_vm.Hidden_class.Registry.find reg id with
        | Some c -> c.Tce_vm.Hidden_class.name
        | None -> Printf.sprintf "?%d" id
    in
    let fn_name oid =
      match Hashtbl.find_opt t.Tce_engine.Engine.opt_table oid with
      | Some code -> code.Tce_jit.Lir.name
      | None -> Printf.sprintf "opt%d" oid
    in
    List.iter
      (fun (cid, line, e) ->
        Fmt.pr "%a@."
          (Tce_core.Class_list.pp_entry ~class_name ~fn_name)
          (cid, line, e))
      (Tce_core.Class_list.dump t.Tce_engine.Engine.cl);
    0
  in
  Cmd.v
    (Cmd.info "classlist"
       ~doc:"Dump the live Class List after running a program (Table 1 format).")
    Term.(const show $ program_arg)

let config_cmd =
  let show () =
    Fmt.pr "%a" Tce_machine.Config.pp Tce_machine.Config.default;
    0
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the simulated core configuration (Table 2).")
    Term.(const show $ const ())

(* --- the paper's experiments --- *)

module Experiments = Tce_runner.Experiments

(* Shared post-run bookkeeping: one stats line ([oc], default stdout) and
   the size-bounded LRU prune. *)
let finish_cache ?oc = function
  | None -> ()
  | Some c ->
    Cache.print_stats ?oc (Cache.stats c);
    ignore (Cache.prune ~dir:(Cache.dir c) ())

let fig_cmd =
  let names =
    let names = List.map (fun (v : Experiments.view) -> v.name) Experiments.views in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"NAME"
          ~doc:
            ("The experiment to print: " ^ Arg.doc_alts names
           ^ ". Without $(docv), every one in that order."))
  in
  let fig names =
    let views =
      if names = [] then Experiments.views
      else
        List.map
          (fun n -> List.find (fun (v : Experiments.view) -> v.name = n) Experiments.views)
          names
    in
    let cache = Cache.create () in
    let cells = Experiments.reader ~cache views in
    (* an experiment that raises does not stop the others, but fails the run *)
    let failed =
      List.filter
        (fun (v : Experiments.view) ->
          match Experiments.print v (cells v) with
          | () -> false
          | exception e ->
            Printf.eprintf "experiment %s failed: %s\n%!" v.name (Printexc.to_string e);
            true)
        views
    in
    (* stdout carries only the experiments *)
    finish_cache ~oc:stderr (Some cache);
    if failed = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fig"
       ~doc:"Print the paper's tables and figures and the ablation studies.")
    Term.(const fig $ names)

let csv_cmd =
  let csv () =
    let cache = Cache.create () in
    Experiments.write_csvs ~cache ();
    finish_cache (Some cache);
    0
  in
  Cmd.v
    (Cmd.info "csv"
       ~doc:
         "Write every figure's and ablation's rows to results/*.csv, from \
          the runner's rows through the cell cache.")
    Term.(const csv $ const ())

let workload_conv lookup =
  Arg.conv'
    ( (fun name -> Option.to_result ~none:("unknown workload " ^ name) (lookup name)),
      fun ppf (w : W.t) -> Fmt.string ppf w.W.name )

let profile_diff_cmd =
  let base = Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE") in
  let cur =
    Arg.(
      value
      & pos 1 string Store.prof_latest_path
      & info [] ~docv:"CUR" ~doc:"The current prof-report.")
  in
  let load path = Store.read_json path Tce_prof.Report.suite_of_json in
  let diff base_path cur_path =
    match (load base_path, load cur_path) with
    | Ok base, Ok cur ->
      Printf.printf "profile drift: %s -> %s (mechanism-on side)\n\n" base_path
        cur_path;
      print_string (Tce_prof.Report.diff_runs ~base ~cur);
      0
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "profile-diff: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "profile-diff"
       ~doc:
         "Run-vs-run differential between two prof-report documents, e.g. \
          a kept copy of an earlier PROF_latest.json and the current one.")
    Term.(const diff $ base $ cur)

(* --- runner subcommands: bench / check / sweep / faults --- *)

let positive_int =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s)),
      Fmt.int )

let shards_t =
  Arg.(
    value
    & opt positive_int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Run the cells on $(docv) supervised worker processes of this \
           executable, longest first, and merge their rows by index — \
           bit-identical to a serial run even when workers crash or hang. \
           1 runs them serially in this process.")

let supervise_t =
  let d = Tce_runner.Supervise.default_config in
  let timeout =
    Arg.(
      value
      & opt float d.Tce_runner.Supervise.cell_timeout_s
      & info [ "supervise-timeout" ] ~docv:"SECONDS"
          ~doc:"Scale of a worker's per-cell progress deadline.")
  in
  let retries =
    Arg.(
      value
      & opt int d.Tce_runner.Supervise.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Quarantine a cell once it has killed $(docv) workers.")
  in
  Term.(
    const (fun cell_timeout_s max_retries ->
        { d with Tce_runner.Supervise.cell_timeout_s; max_retries })
    $ timeout $ retries)

(* The content-addressed cell cache (results/cache/): a repeated identical
   run performs zero simulations. *)
let cache_t =
  let off =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Simulate every cell; bypass the cell cache.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Keep the cell cache in $(docv) instead of results/cache.")
  in
  Term.(
    const (fun off dir -> if off then None else Some (Cache.create ?dir ()))
    $ off $ dir)

let strict_t =
  Arg.(value & flag & info [ "strict" ] ~doc:"Exit 1 when any cell is quarantined.")

let deterministic_t =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Strip the host-dependent fields (timestamps, wall clocks, shard \
           counts) so two runs of the same tree compare with cmp(1).")

let out_t default =
  Arg.(value & opt string default & info [ "out" ] ~docv:"FILE" ~doc:"Write the record to $(docv).")

let dir_t default =
  Arg.(
    value & opt string default
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Archive an immutable copy under $(docv); empty disables.")

(* The "wrote ..." line names an archive copy only when one was written. *)
let archive_clause = function
  | None -> ""
  | Some path -> Printf.sprintf " (archive: %s)" path

(* What the matrix-running subcommands share. *)
type runner = {
  ws : W.t list;
  shards : int;
  supervise : Tce_runner.Supervise.config;
  resume : string option;
  chaos : (Chaos.mode * int) option;
  cache : Cache.t option;
  worker : (int list * Chaos.t option) option;
}

(* [pos] places the workload names: [Arg.pos_all], or [Arg.pos_right 0]
   after a leading positional. [chaos] adds the chaos-harness options. *)
let runner_t ~chaos pos =
  let suites =
    Workloads.
      [ ("all", all); ("selected", selected); ("octane", octane);
        ("sunspider", sunspider); ("kraken", kraken) ]
  in
  let suite =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) suites)) "all"
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:
            ("The roster when no workload is named: "
            ^ Arg.doc_alts (List.map fst suites) ^ "."))
  in
  let names =
    Arg.value
      (pos (workload_conv Workloads.by_name) []
         (Arg.info [] ~docv:"WORKLOAD" ~doc:"Run these roster workloads."))
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Replay the rows journaled by an earlier run and run only the \
             remainder, on supervised workers.")
  in
  let parent_chaos =
    let mode =
      Arg.(
        value
        & opt (some (conv' (Chaos.parse_mode, Fmt.of_to_string Chaos.mode_name))) None
        & info [ "chaos-worker" ] ~docv:"MODE"
            ~doc:
              "Arm one seeded worker fault to drill the supervisor: \
               $(b,crash-after), $(b,sigkill-after), $(b,hang-after), \
               $(b,garbage-after), $(b,truncate-after) or $(b,poison). \
               Disables the cell cache.")
    in
    let seed =
      Arg.(
        value & opt int 1
        & info [ "chaos-seed" ] ~docv:"N"
            ~doc:"Seed choosing which worker misbehaves, and when.")
    in
    Term.(const (fun m seed -> Option.map (fun m -> (m, seed)) m) $ mode $ seed)
  in
  (* the worker side, spawned by a supervised parent; not for direct use *)
  let indices =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "worker-indices" ] ~docs:Manpage.s_none)
  in
  let worker_chaos =
    Arg.(
      value
      & opt (some (conv' (Chaos.parse, Fmt.of_to_string Chaos.to_string))) None
      & info [ "chaos" ] ~docs:Manpage.s_none)
  in
  let parent_chaos, worker_chaos =
    if chaos then (parent_chaos, worker_chaos) else Term.(const None, const None)
  in
  let make suite names shards supervise resume chaos cache indices wchaos =
    {
      ws = (if names <> [] then names else List.assoc suite suites);
      shards;
      supervise;
      resume;
      chaos;
      (* a chaos drill exists to exercise live workers, and a warm cache
         would pre-resolve the cells the fault was aimed at *)
      cache = (if chaos <> None then None else cache);
      worker = Option.map (fun i -> (i, wchaos)) indices;
    }
  in
  Term.(
    const make $ suite $ names $ shards_t $ supervise_t $ resume $ parent_chaos
    $ cache_t $ indices $ worker_chaos)

(* Spawned as a worker: run exactly the given cells of the matrix, in
   order, one row document per cell on stdout, and nothing else.
   Otherwise run [k], whose failure (a refused --resume journal, a
   supervised run that cannot finish) is one line on stderr. *)
let serve_or r cells k =
  match r.worker with
  | Some (indices, chaos) ->
    Tce_runner.Shard.worker ?chaos ~indices ~out:stdout (cells ());
    0
  | None -> (
    try k ()
    with Failure msg ->
      prerr_endline msg;
      1)

let bench_cmd =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Re-run the roster under the cycle-attribution profiler: print \
             the checks-off vs checks-on differential, write \
             PROF_latest.json and collapsed-stack flamegraph lines to \
             bench_profile.folded (load them in speedscope or inferno).")
  in
  let bench r out deterministic strict profile =
    if r.worker = None && r.shards > 1 && profile then
      `Error (true, "--profile is not supported with --shards (run it serially)")
    else
      `Ok
        (serve_or r (fun () -> Tce_runner.Runner.bench_cells r.ws) @@ fun () ->
         let run =
           Tce_runner.Runner.run_suite ~shards:r.shards ~supervise:r.supervise
             ?resume:r.resume ?chaos:r.chaos ?cache:r.cache r.ws
         in
         finish_cache r.cache;
         let run = if deterministic then Record.normalize_run run else run in
         Store.save ~latest:out run;
         Store.print_summary run;
         Printf.printf "wrote %s\n" out;
         if profile then begin
           (* Second pass under the profiler: whole-run measurement per side
              (the reconciliation invariant needs counters on from the first
              instruction), so these runs are separate from the
              steady-state numbers saved above. *)
           let module R = Tce_prof.Report in
           let profs = List.map (fun w -> Harness.run_pair_profiled w) r.ws in
           let pairs =
             List.map
               (fun (p : Harness.profiled) ->
                 {
                   R.p_name = p.Harness.p_name;
                   p_off = Some p.Harness.p_off;
                   p_on = Some p.Harness.p_on;
                 })
               profs
           in
           print_newline ();
           print_string (R.diff_table pairs);
           Store.save_prof
             (R.suite_doc ~git_sha:run.Record.git_sha
                ~config_hash:run.Record.config_hash
                ~created_utc:run.Record.created_utc pairs);
           let folded_path = "bench_profile.folded" in
           Out_channel.with_open_text folded_path (fun oc ->
               List.iter
                 (fun (p : Harness.profiled) ->
                   output_string oc p.Harness.p_folded_off;
                   output_string oc p.Harness.p_folded_on)
                 profs);
           Printf.printf "wrote %s and %s\n" Store.prof_latest_path folded_path
         end;
         (* Non-strict runs survive quarantined cells (the remaining rows
            are intact and reported); --strict makes any quarantine fail. *)
         if strict && run.Record.quarantined <> [] then begin
           Printf.eprintf "bench: --strict and %d cell(s) quarantined\n"
             (List.length run.Record.quarantined);
           1
         end
         else 0)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the roster (mechanism off and on per workload) and write one \
          bench-run record, BENCH_latest.json by default. Rows accepted \
          from workers are journaled to results/journal/bench.jsonl.")
    Term.(
      ret
        (const bench $ runner_t ~chaos:true Arg.pos_all
        $ out_t Store.latest_path $ deterministic_t $ strict_t $ profile))

let check_cmd =
  let baseline =
    Arg.(
      value
      & opt string Store.baseline_path
      & info [ "baseline" ] ~docv:"FILE" ~doc:"The baseline bench-run record.")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD" ~doc:"Gate only these rows of the baseline.")
  in
  let check baseline_path names shards supervise cache =
    let code =
      Tce_runner.Gate.run_gate ~baseline_path ?cache ~names ~shards ~supervise ()
    in
    finish_cache cache;
    code
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Regression gate: re-run the baseline's roster and exit non-zero \
          when any simulated field of a row differs from the baseline's, \
          naming each differing field.")
    Term.(const check $ baseline $ names $ shards_t $ supervise_t $ cache_t)

let sweep_cmd =
  let axes =
    let parse s =
      Result.bind (Sweep.parse_spec s) (fun axes ->
          if fst (Sweep.expand axes) = [] then
            Error "empty sweep grid (every combination invalid)"
          else Ok axes)
    in
    Arg.(
      required
      & pos 0 (some (conv' (parse, Fmt.of_to_string Sweep.axes_to_string))) None
      & info [] ~docv:"SPEC"
          ~doc:
            "The geometry grid, e.g. $(b,\"cc.entries=32,64,128,256 \
             cc.ways=1,2,4 cl.size=4,8\"): Class Cache entries and ways, \
             Class List size. An absent axis sweeps only its paper default.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the CSV to $(docv) (default: the record's path, .csv).")
  in
  let sweep r axes out csv dir deterministic strict =
    serve_or r (fun () -> Sweep.cells ~axes r.ws) @@ fun () ->
    let sweep =
      Sweep.run ~supervise:r.supervise ?resume:r.resume ?cache:r.cache
        ~shards:r.shards ~axes r.ws
    in
    finish_cache r.cache;
    let sweep = if deterministic then Sweep.normalize sweep else sweep in
    print_string (Sweep.report sweep);
    let archive = Sweep.save ~latest:out ~dir sweep in
    let csv_path =
      Option.value csv ~default:(Filename.remove_extension out ^ ".csv")
    in
    Out_channel.with_open_text csv_path (fun oc ->
        output_string oc (Sweep.to_csv sweep));
    Printf.printf "wrote %s%s and %s\n" out (archive_clause archive) csv_path;
    if strict && sweep.Sweep.quarantined <> [] then begin
      Printf.eprintf "sweep: --strict and %d cell(s) quarantined\n"
        (List.length sweep.Sweep.quarantined);
      1
    end
    else
      (* a default-point row differing from the committed baseline is a
         real regression, not a reporting detail *)
      match Sweep.baseline_check sweep with Ok _ -> 0 | Error _ -> 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Design-space explorer: run every (geometry point × workload) cell \
          and report the Pareto frontier over simulated cycles, check \
          removal and a geometry cost proxy. Writes SWEEP_latest.json and \
          .csv; exits 1 when the default geometry's rows differ from the \
          committed baseline.")
    Term.(
      const sweep $ runner_t ~chaos:false (Arg.pos_right 0) $ axes
      $ out_t Store.sweep_latest_path $ csv $ dir_t Store.sweeps_dir
      $ deterministic_t $ strict_t)

let faults_cmd =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "Campaign seed (default %d)."
               Campaign.default_seed))
  in
  let spec =
    Arg.(
      value
      & opt (some fault_spec_conv) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:"The fault points to inject (default: every point).")
  in
  let faults r seed_arg spec_arg out dir strict =
    let seed = Option.value seed_arg ~default:Campaign.default_seed in
    let spec =
      Option.fold ~none:Tce_fault.Spec.default ~some:snd spec_arg
    in
    serve_or r (fun () -> Campaign.cells ~spec ~seed r.ws) @@ fun () ->
    (* pass the cell-identity inputs through verbatim to any workers; the
       roster goes as positional names, so --suite need not survive the hop *)
    let worker_args =
      Option.fold ~none:[] ~some:(fun s -> [ "--fault-seed"; string_of_int s ]) seed_arg
      @ Option.fold ~none:[] ~some:(fun (s, _) -> [ "--fault-spec"; s ]) spec_arg
    in
    let campaign =
      Campaign.run ~spec ~seed ~shards:r.shards ~supervise:r.supervise
        ?resume:r.resume ?chaos:r.chaos ?cache:r.cache ~worker_args r.ws
    in
    finish_cache r.cache;
    let archive = Campaign.save ~latest:out ~dir campaign in
    Campaign.print_summary campaign;
    Printf.printf "wrote %s%s\n" out (archive_clause archive);
    Campaign.exit_code ~strict campaign
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection campaign: run the (workload × fault point) matrix \
          under the differential oracle, write FAULTS_latest.json and an \
          archive copy, and exit non-zero on any silent wrong answer.")
    Term.(
      const faults $ runner_t ~chaos:true Arg.pos_all $ seed $ spec
      $ out_t Campaign.latest_path $ dir_t Campaign.campaigns_dir $ strict_t)

let () =
  let cmds =
    [
      run_cmd; disasm_cmd; opt_dump_cmd; classlist_cmd; config_cmd; bench_cmd;
      check_cmd; sweep_cmd; faults_cmd; profile_diff_cmd; fig_cmd; csv_cmd;
    ]
  in
  (* a first argument naming a file rather than a subcommand runs it *)
  let argv =
    match Array.to_list Sys.argv with
    | exe :: first :: rest
      when Sys.file_exists first
           && (not (Sys.is_directory first))
           && not (List.exists (fun c -> Cmd.name c = first) cmds) ->
      Array.of_list (exe :: "run" :: first :: rest)
    | _ -> Sys.argv
  in
  let info =
    Cmd.info "tcejs"
      ~doc:"MiniJS engine with HW-assisted type-check elision, and its evaluation"
  in
  exit (Cmd.eval' ~argv (Cmd.group ~default:run_term info cmds))
