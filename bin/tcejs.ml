(** [tcejs] — run a MiniJS program under the two-tier engine.

    Usage: tcejs [run] FILE [--no-jit] [--no-mechanism] [--stats]
                 [--trace[=FILE]] [--trace-format=json|chrome]
                 [--metrics-json=FILE] [--obs-sample-cycles=N]
                 [--fault-spec=SPEC] [--fault-seed=N]
                 [--profile[=FILE]] [--profile-json=FILE]
           tcejs disasm FILE            (bytecode listing)
           tcejs opt-dump FILE FUNC     (optimized LIR of FUNC, after warm-up)
           tcejs classlist FILE         (Class List dump after the run)

    [opt-dump] and [classlist] also take a roster workload name (e.g.
    [richards]) in place of FILE when no such file exists.
           tcejs config                 (print the simulated core, Table 2)

    The benchmark roster, the regression gate and the design-space sweep
    run through [bench/main.exe] ([--bench], [--check], [--sweep]). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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
          ~doc:"Record engine events and write them to $(docv) (default trace.json).")
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
      & opt (some string) None
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
      | Some s -> (
        match Tce_fault.Spec.parse s with
        | Ok spec -> Tce_fault.Injector.create ~seed:fault_seed spec
        | Error e ->
          Printf.eprintf "bad --fault-spec: %s\n" e;
          exit 2)
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
    | Some path ->
      Tce_obs.Export.to_file ~path (Tce_metrics.Export.engine_document t)
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
           (Tce_prof.Report.suite_doc
              ~git_sha:(Tce_runner.Store.git_sha ())
              ~config_hash:(Tce_runner.Store.config_hash ~config ())
              ~created_utc:(Tce_runner.Store.timestamp_utc ())
              [ p ])
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
    end
  in
  Term.(
    const run $ file $ no_jit $ no_mech $ stats $ trace_file $ trace_format
    $ metrics_json $ sample_cycles $ fault_spec $ fault_seed $ explain
    $ profile $ profile_json)

let run_cmd = Cmd.v (Cmd.info "run" ~doc:"Run a MiniJS program.") run_term

let disasm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let disasm file =
    let prog = Tce_jit.Bc_compile.compile_source (read_file file) in
    Array.iter
      (fun fn -> Fmt.pr "%a@." Tce_jit.Bytecode.pp_func fn)
      prog.Tce_jit.Bytecode.funcs
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print the bytecode of a program.")
    Term.(const disasm $ file)

(* The program [input] names: the file at that path, else the roster
   workload of that name. *)
let program_source input =
  if Sys.file_exists input then read_file input
  else
    match Tce_workloads.Workloads.by_name input with
    | Some w -> w.Tce_workloads.Workload.source
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
let warm_engine ?(config = Tce_engine.Engine.default_config) input =
  let t = Tce_engine.Engine.of_source ~config (program_source input) in
  Tce_engine.Engine.set_measuring t false;
  ignore (Tce_engine.Engine.run_main t);
  (match Tce_jit.Bytecode.find_func t.Tce_engine.Engine.prog "bench" with
  | Some _ ->
    for _ = 1 to 10 do
      ignore (Tce_engine.Engine.call_by_name t "bench" [||])
    done
  | None -> ());
  t

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
      exit 1
    | Some fn -> (
      match fn.Tce_jit.Bytecode.opt with
      | Some code -> Fmt.pr "%a@." Tce_jit.Lir.pp_func code
      | None ->
        Printf.eprintf
          "%s was not optimized (not hot, or optimization disabled)\n" fname;
        exit 1)
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
      (Tce_core.Class_list.dump t.Tce_engine.Engine.cl)
  in
  Cmd.v
    (Cmd.info "classlist"
       ~doc:"Dump the live Class List after running a program (Table 1 format).")
    Term.(const show $ program_arg)

let config_cmd =
  let show () = Fmt.pr "%a" Tce_machine.Config.pp Tce_machine.Config.default in
  Cmd.v (Cmd.info "config" ~doc:"Print the simulated core configuration (Table 2).")
    Term.(const show $ const ())

let () =
  let info = Cmd.info "tcejs" ~doc:"MiniJS engine with HW-assisted type-check elision" in
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term info
          [
            run_cmd; disasm_cmd; opt_dump_cmd; classlist_cmd; config_cmd;
          ]))
