(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the per-experiment index), plus the
    ablation studies and Bechamel micro-benchmarks of the simulator itself.

    Usage:
      dune exec bench/main.exe             (everything)
      dune exec bench/main.exe -- fig1 fig8 table1 ...
      dune exec bench/main.exe -- bechamel
      dune exec bench/main.exe -- --metrics-json FILE [WORKLOAD ...]
        (run the named workloads — default: the built-in smoke workload —
         and write every Harness.result field as versioned JSON)
      dune exec bench/main.exe -- --bench [--shards N] [--out FILE]
          [--suite all|selected|octane|sunspider|kraken] [--attr[=FILE]]
          [--profile[=FILE]] [--deterministic] [WORKLOAD ...]
        (suite run through Tce_runner, serial in this process by default;
         writes one bench-run record, BENCH_latest.json (or --out FILE).
         Each row carries its host wall clock (wall_seconds); host time
         split by layer is perfbench's job (perfbench/README.md).
         --attr writes the suite attribution report, ATTR_latest.json.
         --profile re-runs the roster under the cycle-attribution
         profiler: prints the checks-off vs checks-on differential, writes
         PROF_latest.json and collapsed-stack flamegraph lines to FILE,
         default bench_profile.folded — load it in speedscope or inferno.
         --shards N runs N supervised worker processes over the roster
         and merges their rows into one run, bit-identical to a serial
         run even when workers crash or hang: dead workers are respawned
         over their missing cells (--supervise-timeout SECONDS scales the
         per-cell progress deadline, --max-retries N bounds how often one
         cell may kill its worker before it is quarantined; --strict
         turns any quarantine into exit 1). Accepted rows are journaled
         to results/journal/bench.jsonl; --resume FILE replays a previous
         journal and runs only the remainder. --chaos-worker MODE
         [--chaos-seed N] arms one seeded worker fault (crash-after /
         sigkill-after / hang-after / garbage-after / truncate-after /
         poison) to drill the supervisor. --worker-indices i,j,k is the
         worker side (row envelopes on stdout, spawned by the parent —
         not meant for direct use).
         --deterministic strips the host-dependent fields (timestamps,
         wall clocks, shard counts) from the saved run so two runs of the
         same tree compare with cmp(1))
      dune exec bench/main.exe -- --sweep "cc.entries=32,64,128,256 cc.ways=1,2,4 cl.size=4,8"
          [--shards N] [--out FILE] [--csv FILE] [--dir DIR]
          [--resume FILE] [--deterministic] [--suite ...] [WORKLOAD ...]
        (design-space explorer: expand the geometry grid — Class Cache
         entries/ways, Class List size; an absent axis sweeps only its
         paper default — run every (point x workload) cell and report the
         Pareto frontier over simulated cycles, check removal and a
         geometry cost proxy. Writes SWEEP_latest.json + .csv and an
         immutable copy under results/sweeps/. Exits non-zero when the
         default geometry's rows are not bit-identical to the committed
         baseline)
      Any runner-backed mode (--bench / --faults / --check / --sweep)
      consults the content-addressed cell cache (results/cache/) by
      default: a repeated identical run performs zero simulations, with
      rows asserted byte-identical to fresh ones. --no-cache disables
      it, --cache-dir DIR relocates it.
      dune exec bench/main.exe -- --profile-diff BASE [CUR]
        (run-vs-run differential between two prof-report documents, e.g.
         a kept copy of an earlier PROF_latest.json vs the current one;
         CUR defaults to PROF_latest.json)
      dune exec bench/main.exe -- --check [--baseline FILE]
          [--tolerance PCT] [--shards N] [WORKLOAD ...]
        (perf-regression gate: re-run the baseline's roster and exit
         non-zero when cycles or check-removal rates degrade)
      dune exec bench/main.exe -- --faults [--fault-seed N] [--fault-spec S]
          [--shards N] [--out FILE] [--dir DIR] [--suite ...] [WORKLOAD ...]
        (fault-injection campaign: run the (workload x fault point) matrix
         under the differential oracle, write FAULTS_latest.json +
         results/campaigns/, exit non-zero on any silent wrong answer.
         --shards N runs the matrix on the same supervised workers as
         --bench, longest workload first, with the same recovery flags)
      Every mode runs its cells serially in this process unless --shards N
      (N > 1) or --resume asks for supervised workers: the parent spawns
      workers of this executable with --worker-indices i,j,k and merges
      their rows by index. *)

open Tce_metrics

let run_bechamel () =
  (* Micro-benchmarks of the reproduction's own hot paths (host-side
     wall-clock, not simulated cycles): how fast the simulator simulates. *)
  print_endline "Bechamel — simulator throughput micro-benchmarks";
  let open Bechamel in
  let quick_engine src =
    Staged.stage (fun () ->
        let t = Tce_engine.Engine.of_source src in
        Tce_engine.Engine.set_measuring t false;
        ignore (Tce_engine.Engine.run_main t))
  in
  let tests =
    [
      Test.make ~name:"fig8:smoke-interp"
        (Staged.stage (fun () ->
             let t =
               Tce_engine.Engine.of_source
                 ~config:{ Tce_engine.Engine.default_config with jit = false }
                 "var s = 0; for (var i = 0; i < 2000; i++) { s = (s + i) & 65535; } print(s);"
             in
             ignore (Tce_engine.Engine.run_main t)))
      ;
      Test.make ~name:"fig8:smoke-jit"
        (quick_engine
           "function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i) & 65535; } return s; }\n\
            var r = 0; for (var k = 0; k < 40; k++) { r = f(500); } print(r);")
      ;
      Test.make ~name:"fig1:bytecode-compile"
        (Staged.stage (fun () ->
             ignore
               (Tce_jit.Bc_compile.compile_source
                  (Option.get (Tce_workloads.Workloads.by_name "richards"))
                    .Tce_workloads.Workload.source)))
      ;
      Test.make ~name:"table1:classlist-example"
        (Staged.stage (fun () -> ignore (Table1.run ())))
      ;
    ]
  in
  (* run each Bechamel test a handful of times and report wall-clock means
     (keeping the output format stable and dependency-light) *)
  List.iter
    (fun test ->
      List.iter
        (fun v ->
          let name = Test.Elt.name v in
          match Test.Elt.fn v with
          | Test.V { fn; kind = Test.Uniq; allocate; free } ->
            let run () =
              let w = allocate () in
              ignore (fn `Init (Test.Uniq.prj w));
              free w
            in
            run ();
            let n = 5 in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to n do
              run ()
            done;
            let dt = (Unix.gettimeofday () -. t0) /. float_of_int n in
            Printf.printf "  %-28s %8.2f ms/run\n%!" name (1000.0 *. dt)
          | Test.V _ -> Printf.printf "  %-28s (skipped)\n" name)
        (Test.elements test))
    tests;
  print_newline ()

let all_experiments =
  [
    ("fig1", Experiments.print_fig1);
    ("fig2", Experiments.print_fig2);
    ("fig3", Experiments.print_fig3);
    ("table1", Table1.print);
    ("table2", Experiments.print_table2);
    ("fig8", Experiments.print_fig8);
    ("fig9", Experiments.print_fig9);
    ("overheads", Experiments.print_overheads);
    ("census", Experiments.print_census);
    ("cc-sweep", Ablation.cc_geometry_sweep);
    ("ablation", Ablation.poly_sweep);
    ("hoisting", Ablation.hoisting_sweep);
    ("checked-load", Ablation.checked_load_comparison);
    ("bechamel", run_bechamel);
    ("csv", fun () -> Experiments.write_csvs ());
  ]

(* A tiny built-in workload so `--metrics-json` has a fast default that
   still exercises tier-up, property ICs and the Class Cache. *)
let smoke_workload =
  Tce_workloads.Workload.make ~suite:Tce_workloads.Workload.Octane
    ~selected:false "smoke"
    {|
function Pt(x, y) { this.x = x; this.y = y; }
function bench() {
  var s = 0;
  for (var i = 0; i < 60; i++) {
    var p = new Pt(i, i + 1);
    s = (s + p.x + p.y) & 65535;
  }
  return s;
}
|}

let run_metrics_json ~path names =
  let names = if names = [] then [ "smoke" ] else names in
  let results =
    List.concat_map
      (fun name ->
        let w =
          if name = "smoke" then smoke_workload
          else
            match Tce_workloads.Workloads.by_name name with
            | Some w -> w
            | None ->
              Printf.eprintf "unknown workload %s\n" name;
              exit 1
        in
        let off, on = Harness.run_pair w in
        [ off; on ])
      names
  in
  Export.write_results ~path results

(* --- runner-backed modes (--bench / --check) --- *)

let usage_fail msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

(* Tiny flag parser shared by the two modes: [--flag V] / [--flag=V] pairs
   plus positional workload names. *)
let parse_flags spec args =
  let opts = Hashtbl.create 8 in
  let positional = ref [] in
  let rec go = function
    | [] -> ()
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" -> (
      let body = String.sub a 2 (String.length a - 2) in
      match String.index_opt body '=' with
      | Some i ->
        let k = String.sub body 0 i in
        if not (List.mem k spec) then usage_fail ("unknown option --" ^ k);
        Hashtbl.replace opts k (String.sub body (i + 1) (String.length body - i - 1));
        go rest
      | None ->
        if not (List.mem body spec) then usage_fail ("unknown option --" ^ body);
        (match rest with
        | v :: rest' ->
          Hashtbl.replace opts body v;
          go rest'
        | [] -> usage_fail (Printf.sprintf "--%s needs a value" body)))
    | a :: rest ->
      positional := a :: !positional;
      go rest
  in
  go args;
  (opts, List.rev !positional)

let opt_int opts key ~default =
  match Hashtbl.find_opt opts key with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> i
    | None -> usage_fail (Printf.sprintf "--%s expects an integer, got %s" key v))

let opt_float opts key ~default =
  match Hashtbl.find_opt opts key with
  | None -> default
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> f
    | None -> usage_fail (Printf.sprintf "--%s expects a number, got %s" key v))

let resolve_workloads ~suite names =
  if names <> [] then
    List.map
      (fun name ->
        match Tce_workloads.Workloads.by_name name with
        | Some w -> w
        | None -> usage_fail ("unknown workload " ^ name))
      names
  else
    match suite with
    | "all" -> Tce_workloads.Workloads.all
    | "selected" -> Tce_workloads.Workloads.selected
    | "octane" -> Tce_workloads.Workloads.octane
    | "sunspider" -> Tce_workloads.Workloads.sunspider
    | "kraken" -> Tce_workloads.Workloads.kraken
    | s -> usage_fail ("unknown suite " ^ s)

(* Shared by --bench / --faults / --check: the supervision knobs
   (--supervise-timeout SECONDS, --max-retries N) over the defaults. *)
let supervise_config opts =
  let d = Tce_runner.Supervise.default_config in
  {
    d with
    Tce_runner.Supervise.cell_timeout_s =
      opt_float opts "supervise-timeout"
        ~default:d.Tce_runner.Supervise.cell_timeout_s;
    max_retries =
      opt_int opts "max-retries" ~default:d.Tce_runner.Supervise.max_retries;
  }

(* `--no-cache` / `--cache-dir DIR`: every runner-backed mode consults the
   content-addressed cell cache by default (results/cache/) — a repeated
   identical run performs zero simulations. [--no-cache] disables it,
   [--cache-dir] relocates it (tests, CI isolation). *)
let make_cache opts =
  match Hashtbl.find_opt opts "cache-dir" with
  | Some dir -> Tce_runner.Cache.create ~dir ()
  | None -> Tce_runner.Cache.create ()

(* Shared post-run bookkeeping: one stats line to stdout and the
   size-bounded LRU prune. *)
let finish_cache cache =
  match cache with
  | None -> ()
  | Some c ->
    Tce_runner.Cache.print_stats (Tce_runner.Cache.stats c);
    ignore (Tce_runner.Cache.prune ~dir:(Tce_runner.Cache.dir c) ())

(* `--chaos MODE:ARG` (hidden worker side of the chaos harness). *)
let parse_worker_chaos opts =
  match Hashtbl.find_opt opts "chaos" with
  | None -> None
  | Some spec -> (
    match Tce_runner.Supervise.Chaos.parse spec with
    | Ok c -> Some c
    | Error e -> usage_fail e)

(* `--chaos-worker MODE [--chaos-seed N]` (parent side): arm one seeded
   worker fault per run, for the CI chaos smoke and local drills. *)
let parse_parent_chaos opts =
  match Hashtbl.find_opt opts "chaos-worker" with
  | None -> None
  | Some m -> (
    match Tce_runner.Supervise.Chaos.parse_mode m with
    | Ok mode -> Some (mode, opt_int opts "chaos-seed" ~default:1)
    | Error e -> usage_fail ("bad --chaos-worker: " ^ e))

(* Hidden worker mode (`--worker-indices i,j,k`, spawned by a supervised
   parent): run exactly those cells of the matrix, in order, one row
   envelope per cell on stdout, then exit — no summary, no result files.
   `--chaos MODE:ARG` arms the worker side of the chaos harness. *)
let serve_worker opts cells =
  match Hashtbl.find_opt opts "worker-indices" with
  | None -> ()
  | Some s ->
    let indices =
      List.map
        (fun t ->
          match int_of_string_opt (String.trim t) with
          | Some i -> i
          | None ->
            usage_fail (Printf.sprintf "--worker-indices: bad index %S" t))
        (String.split_on_char ',' s)
    in
    Tce_runner.Shard.worker ?chaos:(parse_worker_chaos opts) ~indices
      ~out:stdout (cells ());
    exit 0

let run_bench args =
  (* `--deterministic`, `--strict`, `--no-cache`, `--attr[=FILE]` and
     `--profile[=FILE]` are value-less flags; peel them off before the
     value-taking flag parser sees them. *)
  let det_args, args = List.partition (fun a -> a = "--deterministic") args in
  let deterministic = det_args <> [] in
  let strict_args, args = List.partition (fun a -> a = "--strict") args in
  let strict = strict_args <> [] in
  let nc_args, args = List.partition (fun a -> a = "--no-cache") args in
  let no_cache = nc_args <> [] in
  let attr_args, args =
    List.partition
      (fun a ->
        a = "--attr"
        || (String.length a > 7 && String.sub a 0 7 = "--attr="))
      args
  in
  let attr_out =
    match attr_args with
    | [] -> None
    | a :: _ when String.length a > 7 ->
      Some (String.sub a 7 (String.length a - 7))
    | _ -> Some Tce_runner.Store.attr_latest_path
  in
  let prof_args, args =
    List.partition
      (fun a ->
        a = "--profile"
        || (String.length a > 10 && String.sub a 0 10 = "--profile="))
      args
  in
  let prof_out =
    match prof_args with
    | [] -> None
    | a :: _ when String.length a > 10 ->
      Some (String.sub a 10 (String.length a - 10))
    | _ -> Some "bench_profile.folded"
  in
  let opts, names =
    parse_flags
      [ "out"; "suite"; "shards"; "worker-indices";
        "chaos"; "supervise-timeout"; "max-retries"; "resume"; "chaos-worker";
        "chaos-seed"; "cache-dir" ]
      args
  in
  let suite = Option.value ~default:"all" (Hashtbl.find_opt opts "suite") in
  let ws = resolve_workloads ~suite names in
  serve_worker opts (fun () -> Tce_runner.Runner.bench_cells ws);
  let shards = opt_int opts "shards" ~default:1 in
  if shards < 1 then usage_fail "--shards expects a positive integer";
  if shards > 1 && (attr_out <> None || prof_out <> None) then
    usage_fail "--attr/--profile are not supported with --shards (run them serially)";
  let resume = Hashtbl.find_opt opts "resume" in
  let chaos = parse_parent_chaos opts in
  (* chaos drills exist to exercise live workers, so an armed chaos
     harness disables the cell cache (a warm cache would pre-resolve the
     cells the fault was aimed at) *)
  let cache =
    if no_cache || chaos <> None then None else Some (make_cache opts)
  in
  let run =
    Tce_runner.Runner.run_suite ~shards ~supervise:(supervise_config opts)
      ?resume ?chaos ?cache ws
  in
  finish_cache cache;
  let run = if deterministic then Tce_runner.Record.normalize_run run else run in
  let latest =
    Option.value ~default:Tce_runner.Store.latest_path (Hashtbl.find_opt opts "out")
  in
  Tce_runner.Store.save ~latest run;
  Tce_runner.Store.print_summary run;
  Printf.printf "wrote %s\n" latest;
  (match attr_out with
  | None -> ()
  | Some path ->
    (* Suite attribution from the benchmark records themselves (the
       composition block), so the report reflects exactly what the run
       measured. *)
    let per_workload =
      List.map
        (fun (w : Tce_runner.Record.workload) ->
          ( w.Tce_runner.Record.name,
            List.map
              (fun (kind, off, on) ->
                { Tce_attr.Aggregate.kind; off; on_ = on })
              w.Tce_runner.Record.checks_by_kind ))
        run.Tce_runner.Record.workloads
    in
    print_string (Tce_attr.Aggregate.suite_table per_workload);
    Tce_obs.Export.to_file ~path
      (Tce_attr.Aggregate.suite_report_json per_workload);
    Printf.printf "wrote %s\n" path);
  (match prof_out with
  | None -> ()
  | Some folded_path ->
    (* Second pass under the profiler: whole-run measurement per side (the
       reconciliation invariant needs counters on from the first
       instruction), so these runs are separate from the steady-state
       numbers saved above. *)
    let module R = Tce_prof.Report in
    let profs = Tce_runner.Runner.run_profiles ws in
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
    let doc =
      R.suite_doc ~git_sha:run.Tce_runner.Record.git_sha
        ~config_hash:run.Tce_runner.Record.config_hash
        ~created_utc:run.Tce_runner.Record.created_utc pairs
    in
    Tce_runner.Store.save_prof doc;
    let oc = open_out folded_path in
    List.iter
      (fun (p : Harness.profiled) ->
        output_string oc p.Harness.p_folded_off;
        output_string oc p.Harness.p_folded_on)
      profs;
    close_out oc;
    Printf.printf "wrote %s and %s\n" Tce_runner.Store.prof_latest_path
      folded_path);
  (* Non-strict runs survive quarantined cells (the remaining rows are
     intact and reported); --strict makes any quarantine fail the run. *)
  if strict && run.Tce_runner.Record.quarantined <> [] then begin
    Printf.eprintf "bench: --strict and %d cell(s) quarantined\n"
      (List.length run.Tce_runner.Record.quarantined);
    exit 1
  end;
  exit 0

(* Run-vs-run differential between two stored prof-report documents. *)
let run_profile_diff args =
  let load_pairs path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> usage_fail msg
    | text -> (
      match Result.bind (Tce_obs.Json.of_string text) Tce_prof.Report.suite_of_json with
      | Ok pairs -> pairs
      | Error msg -> usage_fail (Printf.sprintf "%s: %s" path msg))
  in
  let base_path, cur_path =
    match args with
    | [ b ] -> (b, Tce_runner.Store.prof_latest_path)
    | [ b; c ] -> (b, c)
    | _ -> usage_fail "--profile-diff needs BASE [CUR] prof-report files"
  in
  let base = load_pairs base_path and cur = load_pairs cur_path in
  Printf.printf "profile drift: %s -> %s (mechanism-on side)\n\n" base_path
    cur_path;
  print_string (Tce_prof.Report.diff_runs ~base ~cur);
  exit 0

let run_faults args =
  let strict_args, args = List.partition (fun a -> a = "--strict") args in
  let strict = strict_args <> [] in
  let nc_args, args = List.partition (fun a -> a = "--no-cache") args in
  let no_cache = nc_args <> [] in
  let opts, names =
    parse_flags
      [ "fault-seed"; "fault-spec"; "out"; "dir"; "suite"; "shards";
        "worker-indices"; "chaos"; "supervise-timeout"; "max-retries";
        "resume"; "chaos-worker"; "chaos-seed"; "cache-dir" ]
      args
  in
  let seed =
    opt_int opts "fault-seed" ~default:Tce_runner.Campaign.default_seed
  in
  let spec =
    match Hashtbl.find_opt opts "fault-spec" with
    | None -> Tce_fault.Spec.default
    | Some s -> (
      match Tce_fault.Spec.parse s with
      | Ok spec -> spec
      | Error e -> usage_fail ("bad --fault-spec: " ^ e))
  in
  let suite = Option.value ~default:"all" (Hashtbl.find_opt opts "suite") in
  let ws = resolve_workloads ~suite names in
  serve_worker opts (fun () -> Tce_runner.Campaign.cells ~spec ~seed ws);
  let shards = opt_int opts "shards" ~default:1 in
  if shards < 1 then usage_fail "--shards expects a positive integer";
  let resume = Hashtbl.find_opt opts "resume" in
  let chaos = parse_parent_chaos opts in
  (* as for --bench: a chaos drill needs live workers, not cache hits *)
  let cache =
    if no_cache || chaos <> None then None else Some (make_cache opts)
  in
  (* pass the cell-identity inputs through verbatim to any workers; the
     roster goes as positional names, so --suite need not survive the hop *)
  let pass key =
    match Hashtbl.find_opt opts key with
    | None -> []
    | Some v -> [ "--" ^ key; v ]
  in
  let campaign =
    Tce_runner.Campaign.run ~spec ~seed ~shards
      ~supervise:(supervise_config opts) ?resume ?chaos ?cache
      ~worker_args:(pass "fault-seed" @ pass "fault-spec")
      ws
  in
  finish_cache cache;
  let latest =
    Option.value ~default:Tce_runner.Campaign.latest_path
      (Hashtbl.find_opt opts "out")
  in
  let dir =
    Option.value ~default:Tce_runner.Campaign.campaigns_dir
      (Hashtbl.find_opt opts "dir")
  in
  let archive = Tce_runner.Campaign.save ~latest ~dir campaign in
  Tce_runner.Campaign.print_summary campaign;
  Printf.printf "wrote %s (archive: %s)\n" latest archive;
  exit (Tce_runner.Campaign.exit_code ~strict campaign)

(* `--sweep "cc.entries=... cc.ways=... cl.size=..."`: the design-space
   explorer — expand the geometry grid, run the (point × workload) cell
   matrix (in this process, or supervised across --shards N workers), and
   report the Pareto frontier. Cells flow through the cell cache, so a
   repeated sweep performs zero simulations and changing one axis value
   re-simulates only that axis's cells. *)
let run_sweep args =
  let spec_str, args =
    match args with
    | spec :: rest when String.length spec < 2 || String.sub spec 0 2 <> "--" ->
      (spec, rest)
    | _ ->
      usage_fail
        "--sweep needs a spec string (e.g. \"cc.entries=64,128 cc.ways=1,2\")"
  in
  let det_args, args = List.partition (fun a -> a = "--deterministic") args in
  let deterministic = det_args <> [] in
  let nc_args, args = List.partition (fun a -> a = "--no-cache") args in
  let no_cache = nc_args <> [] in
  let strict_args, args = List.partition (fun a -> a = "--strict") args in
  let strict = strict_args <> [] in
  let opts, names =
    parse_flags
      [ "out"; "csv"; "dir"; "suite"; "shards"; "worker-indices";
        "supervise-timeout"; "max-retries"; "resume"; "cache-dir" ]
      args
  in
  let axes =
    match Tce_runner.Sweep.parse_spec spec_str with
    | Ok a -> a
    | Error e -> usage_fail ("bad --sweep spec: " ^ e)
  in
  let suite = Option.value ~default:"all" (Hashtbl.find_opt opts "suite") in
  let ws = resolve_workloads ~suite names in
  serve_worker opts (fun () -> Tce_runner.Sweep.cells ~axes ws);
  let shards = opt_int opts "shards" ~default:1 in
  if shards < 1 then usage_fail "--shards expects a positive integer";
  let resume = Hashtbl.find_opt opts "resume" in
  let points, _ = Tce_runner.Sweep.expand axes in
  if points = [] then usage_fail "empty sweep grid (every combination invalid)";
  let cache = if no_cache then None else Some (make_cache opts) in
  let sweep =
    Tce_runner.Sweep.run ~supervise:(supervise_config opts) ?resume ?cache
      ~shards ~axes ws
  in
  finish_cache cache;
  let sweep =
    if deterministic then Tce_runner.Sweep.normalize sweep else sweep
  in
  print_string (Tce_runner.Sweep.report sweep);
  let latest =
    Option.value ~default:Tce_runner.Store.sweep_latest_path
      (Hashtbl.find_opt opts "out")
  in
  let dir =
    Option.value ~default:Tce_runner.Store.sweeps_dir
      (Hashtbl.find_opt opts "dir")
  in
  let archive = Tce_runner.Sweep.save ~latest ~dir sweep in
  let csv_path =
    Option.value
      ~default:(Filename.remove_extension latest ^ ".csv")
      (Hashtbl.find_opt opts "csv")
  in
  let oc = open_out csv_path in
  output_string oc (Tce_runner.Sweep.to_csv sweep);
  close_out oc;
  Printf.printf "wrote %s (archive: %s) and %s\n" latest archive csv_path;
  if strict && sweep.Tce_runner.Sweep.quarantined <> [] then begin
    Printf.eprintf "sweep: --strict and %d cell(s) quarantined\n"
      (List.length sweep.Tce_runner.Sweep.quarantined);
    exit 1
  end;
  (* a default-point row differing from the committed baseline is a real
     regression, not a reporting detail *)
  match Tce_runner.Sweep.baseline_check sweep with
  | Ok _ -> exit 0
  | Error _ -> exit 1

let run_check args =
  let nc_args, args = List.partition (fun a -> a = "--no-cache") args in
  let no_cache = nc_args <> [] in
  let opts, names =
    parse_flags
      [ "baseline"; "tolerance"; "shards"; "supervise-timeout";
        "max-retries"; "cache-dir" ]
      args
  in
  let baseline_path =
    Option.value ~default:Tce_runner.Store.baseline_path
      (Hashtbl.find_opt opts "baseline")
  in
  let tolerance_pct =
    opt_float opts "tolerance" ~default:Tce_runner.Gate.default_tolerance_pct
  in
  let shards = opt_int opts "shards" ~default:1 in
  if shards < 1 then usage_fail "--shards expects a positive integer";
  let cache = if no_cache then None else Some (make_cache opts) in
  let code =
    Tce_runner.Gate.run_gate ~baseline_path ~tolerance_pct ?cache ~names
      ~shards ~supervise:(supervise_config opts) ()
  in
  exit code

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* `--metrics-json FILE [workload ...]` / `--metrics-json=FILE` is a
     separate mode: JSON export instead of the experiment tables. *)
  (match args with
  | "--bench" :: rest -> run_bench rest
  | "--check" :: rest -> run_check rest
  | "--faults" :: rest -> run_faults rest
  | "--sweep" :: rest -> run_sweep rest
  | "--profile-diff" :: rest -> run_profile_diff rest
  | "--metrics-json" :: path :: rest ->
    run_metrics_json ~path rest;
    exit 0
  | first :: rest when String.length first > 15
                       && String.sub first 0 15 = "--metrics-json=" ->
    run_metrics_json
      ~path:(String.sub first 15 (String.length first - 15))
      rest;
    exit 0
  | [ "--metrics-json" ] -> usage_fail "--metrics-json needs a FILE"
  | opt :: _ when String.length opt > 2 && String.sub opt 0 2 = "--" ->
    usage_fail ("unknown option " ^ opt)
  | _ -> ());
  let chosen =
    if args = [] then List.map fst all_experiments
    else args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f ->
        (try f ()
         with e ->
           Printf.printf "experiment %s failed: %s\n" name (Printexc.to_string e))
      | None -> Printf.printf "unknown experiment %s\n" name)
    chosen
