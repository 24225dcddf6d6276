(** Workload [roster]: all 55 workloads, mechanism off and on, serial, in
    one process, through {!Tce_runner.Runner.run_suite} into a fresh,
    empty, private cell cache — the run users wait on for the paper's
    figures. Every row must equal the committed baseline in every
    deterministic field.

    The traced run repeats the pass from outside: it calls the front end,
    the bytecode compiler, the engine and the cell cache itself, one span
    per call, and then replays the optimizing compiler, stream install,
    the pure interpreter and the memory-hierarchy models against seeded
    inputs. *)

module R = Tce_runner
module Rec = Tce_runner.Record
module W = Tce_workloads.Workload
module E = Tce_engine.Engine
module M = Tce_machine.Machine
module C = Tce_machine.Counters

let load_baseline () : Rec.workload list =
  match R.Store.load R.Store.baseline_path with
  | Ok r -> r.Rec.workloads
  | Error e -> failwith ("cannot read the committed baseline: " ^ e)

(** Why each row of [rows] fails: it differs from its baseline row in a
    deterministic field, or has none. *)
let mismatches ~(baseline : Rec.workload list) (rows : Rec.workload list) =
  List.filter_map
    (fun (r : Rec.workload) ->
      match List.find_opt (fun (b : Rec.workload) -> b.Rec.name = r.Rec.name) baseline with
      | Some b when Rec.equal_deterministic b r -> None
      | Some _ -> Some (r.Rec.name ^ ": row differs from the committed baseline")
      | None -> Some (r.Rec.name ^ ": no baseline row"))
    rows

type env = { ws : W.t list; baseline : Rec.workload list }

(** Set-up: decode the baseline and digest the simulator binary into the
    cache-key fingerprint. The roster is fixed, so the seed changes
    nothing here: every seed measures the same inputs. *)
let setup () =
  let ws = Tce_workloads.Workloads.all in
  let baseline = load_baseline () in
  ignore (R.Cache.bench_key (List.hd ws));
  { ws; baseline }

(** One roster pass through the runner into a fresh private cache: the
    rows, and one error per failed row. The host's speed is sampled with
    [probe] after each row, and [probed] counts the seconds that took. *)
let pass env ~probe ~probed ~cache_dir =
  let cache = R.Cache.create ~dir:cache_dir () in
  let n = List.length env.ws in
  let last = ref (Span.now_ns ()) in
  let on_row _ =
    probed := !probed +. Probe.after probe (Span.seconds_of_ns (Span.now_ns () - !last));
    last := Span.now_ns ()
  in
  match R.Runner.run_suite ~cache ~jobs:1 ~on_row env.ws with
  | exception e -> ([], List.init n (fun _ -> "roster pass raised: " ^ Printexc.to_string e))
  | run ->
    let rows = run.Rec.workloads in
    let cold =
      if run.Rec.cache_hits <> 0 || run.Rec.cache_misses <> n then
        [ Printf.sprintf "cache was not cold: %d hits, %d misses" run.Rec.cache_hits
            run.Rec.cache_misses ]
      else []
    in
    ( rows,
      mismatches ~baseline:env.baseline rows
      @ List.init (n - List.length rows) (fun _ -> "row missing")
      @ cold )

let side_ms (rows : Rec.workload list) =
  List.concat_map
    (fun (r : Rec.workload) -> [ 1000.0 *. r.Rec.wall_seconds_off; 1000.0 *. r.Rec.wall_seconds_on ])
    rows

let run ~setup_s ~seconds ~fresh_dir : Metrics.t =
  let env = setup () in
  let probe = Probe.create () in
  (* a pass's time is its wall time less the probing between its rows *)
  let ps =
    Metrics.repeat ~seconds (fun () ->
        let probed = ref 0.0 in
        let secs, (_, errors) =
          Metrics.timed (fun () -> pass env ~probe ~probed ~cache_dir:(fresh_dir "cache"))
        in
        (secs -. !probed, errors))
  in
  Metrics.end_to_end ~probe:(Some probe)
    ~attempted:(List.length env.ws * List.length ps)
    ~errors:(List.concat_map (fun (_, (_, e)) -> e) ps)
    ~wall_s:(List.map (fun (_, (secs, _)) -> secs) ps)
    ~setup_s

(* --- the traced run --- *)

type counts = {
  mutable warmup_interp_instrs : int;  (** top level and warm-up *)
  mutable warmup_opt_instrs : int;
  mutable steady_instrs : int;
  mutable l1d : int;
  mutable l2 : int;
  mutable cc : int;
  mutable compiles : int;
  mutable lir_instrs : int;
  mutable streams : int;
  mutable rejected : int;
  mutable replay_bailouts : int;
}

(** Recompile every function the finished engine compiled, against its
    final state, and pre-decode each result into a fresh machine. The
    engine is discarded afterwards, so what the replay mutates is moot. *)
let replay_compile replays counts (t : E.t) =
  let codes = Hashtbl.fold (fun oid code acc -> (oid, code) :: acc) t.E.opt_table [] in
  Span.time replays "jit.opt_compile" (fun () ->
      List.iter
        (fun (oid, (code : Tce_jit.Lir.func)) ->
          match Hashtbl.find_opt t.E.shadow_table oid with
          | None -> counts.replay_bailouts <- counts.replay_bailouts + 1
          | Some fn -> (
            try
              ignore
                (Tce_jit.Opt.compile
                   {
                     Tce_jit.Opt.prog = t.E.prog;
                     heap = t.E.heap;
                     cl = t.E.cl;
                     mechanism = t.E.cfg.E.mechanism;
                     hoisting = t.E.cfg.E.hoisting;
                     checked_load = t.E.cfg.E.checked_load;
                     fn;
                     opt_id = oid;
                     code_addr = code.Tce_jit.Lir.code_addr;
                     globals_base = t.E.globals_base;
                     attr = Tce_attr.Ledger.null;
                   })
            with _ -> counts.replay_bailouts <- counts.replay_bailouts + 1))
        codes);
  Span.time replays "machine.install" (fun () ->
      let m =
        M.create ~cfg:t.E.cfg.E.mach_cfg ~mechanism:t.E.cfg.E.mechanism
          ~heap:t.E.heap ~cc:(Tce_core.Class_cache.create ()) ~cl:t.E.cl
          ~oracle:t.E.oracle ~counters:(C.create ()) ()
      in
      List.iter (fun (_, code) -> ignore (M.install m code)) codes)

(** One side of one workload, phase by phase, as {!Tce_metrics.Harness.run}
    does it. Returns the checksum and the steady and whole-run cycles. *)
let traced_side spans wall replays counts ~config (w : W.t) =
  let t, v, snap, (l1d0, l20, cc0, cyc0) =
    Span.interval wall (fun () ->
        let ast = Span.time spans "minijs.parse" (fun () -> Tce_minijs.Parser.parse w.W.source) in
        let prog = Span.time spans "jit.bc_compile" (fun () -> Tce_jit.Bc_compile.compile ast) in
        let t = Span.time spans "engine.create" (fun () -> E.create ~config prog) in
        E.set_measuring t true;
        ignore (Span.time spans "engine.run_main" (fun () -> E.run_main t));
        Span.time spans "engine.warmup" (fun () ->
            for _ = 1 to w.W.iterations - 1 do
              ignore (E.call_by_name t "bench" [||])
            done);
        let snap = C.copy t.E.counters in
        let m = t.E.mach in
        let marks =
          ( m.M.l1d.Tce_machine.Cache.stats.accesses,
            m.M.l2.Tce_machine.Cache.stats.accesses,
            t.E.cc.Tce_core.Class_cache.stats.accesses,
            E.opt_cycles t )
        in
        let v = Span.time spans "engine.steady" (fun () -> E.call_by_name t "bench" [||]) in
        E.set_measuring t false;
        (t, v, snap, marks))
  in
  let m = t.E.mach in
  let c = C.since t.E.counters snap in
  counts.warmup_interp_instrs <- counts.warmup_interp_instrs + snap.C.baseline_instrs;
  counts.warmup_opt_instrs <- counts.warmup_opt_instrs + C.opt_instrs snap;
  counts.steady_instrs <- counts.steady_instrs + C.total_instrs c;
  counts.l1d <- counts.l1d + m.M.l1d.Tce_machine.Cache.stats.accesses - l1d0;
  counts.l2 <- counts.l2 + m.M.l2.Tce_machine.Cache.stats.accesses - l20;
  counts.cc <- counts.cc + t.E.cc.Tce_core.Class_cache.stats.accesses - cc0;
  counts.compiles <- counts.compiles + Hashtbl.length t.E.opt_table;
  Hashtbl.iter
    (fun _ (code : Tce_jit.Lir.func) ->
      counts.lir_instrs <- counts.lir_instrs + Array.length code.Tce_jit.Lir.code)
    t.E.opt_table;
  Hashtbl.iter
    (fun _ (_, tpl) ->
      counts.streams <- counts.streams + 1;
      if tpl = None then counts.rejected <- counts.rejected + 1)
    m.M.tpl_cache;
  let cpi = config.E.mach_cfg.Tce_machine.Config.baseline_cpi in
  let steady =
    float_of_int (E.opt_cycles t - cyc0) +. (float_of_int c.C.baseline_instrs *. cpi)
  in
  let whole = float_of_int (E.opt_cycles t) +. E.baseline_cycles t in
  let checksum = Tce_vm.Heap.to_display_string t.E.heap v in
  replay_compile replays counts t;
  (checksum, steady, whole)

(** The traced pass, interleaved per workload with the untraced one so
    both see the same host and heap state: the runner measures the
    workload into [env]'s fresh cache ({!Tce_runner.Runner.run_one}),
    then both sides run again phase by phase and the runner's cache key
    and store are replayed. The traced checksums and cycles must equal
    the untraced row, and that row the committed baseline. Returns the
    untraced rows, their host seconds, and one error per failed row. *)
let traced_pass spans wall replays counts env ~cache_dir ~per_workload =
  let untraced_cache = R.Cache.create ~dir:(Filename.concat cache_dir "untraced") () in
  let cache = R.Cache.create ~dir:(Filename.concat cache_dir "traced") () in
  let untraced_ns = ref 0 in
  let results =
    List.map
      (fun (w : W.t) ->
        let t0 = Span.now_ns () in
        let row = try Ok (R.Runner.run_one ~cache:untraced_cache w) with e -> Error e in
        untraced_ns := !untraced_ns + (Span.now_ns () - t0);
        let before = Span.totals spans in
        let instrs () =
          [
            ("interp_instrs", counts.warmup_interp_instrs);
            ("opt_instrs", counts.warmup_opt_instrs);
            ("steady_instrs", counts.steady_instrs);
          ]
        in
        let instrs_before = instrs () in
        let side mechanism =
          traced_side spans wall replays counts
            ~config:{ E.default_config with E.mechanism } w
        in
        let ck_off, steady_off, whole_off = side false in
        let ck_on, steady_on, whole_on = side true in
        let errors =
          match row with
          | Error e -> [ w.W.name ^ ": " ^ Printexc.to_string e ]
          | Ok r ->
            Span.interval wall (fun () ->
                let key = Span.time spans "runner.cache_key" (fun () -> R.Cache.bench_key w) in
                Span.time spans "runner.cache_store" (fun () ->
                    R.Cache.store cache ~key (Rec.workload_to_json (Rec.zero_walls r))));
            mismatches ~baseline:env.baseline [ r ]
            @
            if
              ck_off = r.Rec.checksum && ck_on = r.Rec.checksum
              && steady_off = r.Rec.cycles_off && steady_on = r.Rec.cycles_on
              && whole_off = r.Rec.whole_cycles_off && whole_on = r.Rec.whole_cycles_on
            then []
            else [ w.W.name ^ ": traced checksum or cycles differ from the untraced row" ]
        in
        let delta =
          List.map
            (fun (n, ns) -> (n, ns - Option.value ~default:0 (List.assoc_opt n before)))
            (Span.totals spans)
        in
        let instrs_delta =
          List.map2 (fun (n, a) (_, b) -> (n, a - b)) (instrs ()) instrs_before
        in
        per_workload := (w.W.name, delta, instrs_delta) :: !per_workload;
        (Result.to_option row, errors))
      env.ws
  in
  let stats = R.Cache.stats untraced_cache in
  let cold =
    if stats.R.Cache.hits <> 0 then [ "the untraced cache was not cold" ] else []
  in
  ( List.filter_map fst results,
    Span.seconds_of_ns !untraced_ns,
    List.concat_map snd results @ cold )

(** The slowest workloads of the traced pass, one line each with the
    seconds of every span and the simulated instructions of each phase
    (interpreted and optimized in top level plus warm-up, all in the
    steady call), to stderr. *)
let print_slowest ~n per_workload =
  let total d = List.fold_left (fun s (_, ns) -> s + ns) 0 d in
  let slowest =
    List.filteri
      (fun i _ -> i < n)
      (List.sort (fun (_, a, _) (_, b, _) -> compare (total b) (total a)) per_workload)
  in
  List.iter
    (fun (name, d, instrs) ->
      Printf.eprintf "perfbench: traced %s %.3fs:%s%s\n" name
        (Span.seconds_of_ns (total d))
        (String.concat ""
           (List.map (fun (k, ns) -> Printf.sprintf " %s=%.3f" k (Span.seconds_of_ns ns)) d))
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) instrs)))
    slowest

(** Host nanoseconds per interpreted instruction: every workload's top
    level and one bench() call with the JIT off. *)
let interp_ns_per_instr ws =
  let ns = ref 0 and instrs = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let t = E.of_source ~config:{ E.default_config with E.jit = false } w.W.source in
      E.set_measuring t true;
      let t0 = Span.now_ns () in
      ignore (E.run_main t);
      ignore (E.call_by_name t "bench" [||]);
      ns := !ns + (Span.now_ns () - t0);
      instrs := !instrs + t.E.counters.C.baseline_instrs)
    ws;
  float_of_int !ns /. float_of_int (max 1 !instrs)

(** Host nanoseconds per access of a memory-hierarchy model, over a
    seeded address stream: 80% in a small hot region, 20% across a wide
    one. Median of three passes. *)
let access_ns ~seed ~hot ~wide access =
  let n = 1 lsl 20 in
  let st = Random.State.make [| seed |] in
  let addrs =
    Array.init n (fun _ ->
        if Random.State.int st 10 < 8 then Random.State.full_int st hot
        else Random.State.full_int st wide)
  in
  1e9 /. float_of_int n
  *. Metrics.median
       (List.init 3 (fun _ ->
            fst (Metrics.timed (fun () -> Array.iter (fun a -> ignore (access a)) addrs))))

let memory_models ~seed =
  let cfg = Tce_machine.Config.default in
  let cache =
    Tce_machine.Cache.create ~size_kb:cfg.Tce_machine.Config.dl1_kb
      ~ways:cfg.Tce_machine.Config.dl1_ways ~line_bytes:64
  in
  let tlb = Tce_machine.Tlb.create ~entries:cfg.Tce_machine.Config.dtlb_entries in
  let cc = Tce_core.Class_cache.create () in
  [
    ("machine.cache_access_ns",
     access_ns ~seed ~hot:(1 lsl 15) ~wide:(1 lsl 24) (Tce_machine.Cache.access cache));
    ("machine.tlb_access_ns",
     access_ns ~seed ~hot:(1 lsl 18) ~wide:(1 lsl 30) (Tce_machine.Tlb.access tlb));
    ("core.class_cache_access_ns",
     access_ns ~seed ~hot:256 ~wide:4096 (fun a ->
         Tce_core.Class_cache.touch cc ~classid:(a lsr 2) ~line:(a land 3)));
  ]

let trace ~seed ~fresh_dir ~max_share : Metrics.t =
  let env = setup () in
  let spans = Span.create () and replays = Span.create () and wall = Span.wall () in
  let counts =
    {
      warmup_interp_instrs = 0;
      warmup_opt_instrs = 0;
      steady_instrs = 0;
      l1d = 0;
      l2 = 0;
      cc = 0;
      compiles = 0;
      lir_instrs = 0;
      streams = 0;
      rejected = 0;
      replay_bailouts = 0;
    }
  in
  let per_workload = ref [] in
  let rows, untraced_s, errors =
    traced_pass spans wall replays counts env ~cache_dir:(fresh_dir "cache") ~per_workload
  in
  print_slowest ~n:5 !per_workload;
  let unattributed = Span.reconcile_exn ~what:"roster" ~max_share wall spans in
  let traced_s = Span.seconds_of_ns wall.Span.wall_ns in
  let steady_s = Span.seconds spans "engine.steady" in
  Metrics.make ~attempted:(List.length env.ws) ~errors
    (Metrics.of_spans spans @ Metrics.of_spans replays
      @ [
          ("unattributed_s", Span.seconds_of_ns unattributed);
          ("trace_overhead_pct", 100.0 *. ((traced_s /. untraced_s) -. 1.0));
          ("engine.warmup_interp_instrs", float_of_int counts.warmup_interp_instrs);
          ("machine.warmup_opt_instrs", float_of_int counts.warmup_opt_instrs);
          ("machine.steady_instrs", float_of_int counts.steady_instrs);
          ("machine.steady_mips", float_of_int counts.steady_instrs /. steady_s /. 1e6);
          ("jit.opt_compiles", float_of_int counts.compiles);
          ("jit.lir_instrs", float_of_int counts.lir_instrs);
          ("machine.template_reject_pct",
           100.0 *. float_of_int counts.rejected /. float_of_int (max 1 counts.streams));
          ("jit.opt_replay_bailouts", float_of_int counts.replay_bailouts);
          ("engine.interp_ns_per_instr", interp_ns_per_instr env.ws);
          ("machine.l1d_accesses", float_of_int counts.l1d);
          ("machine.l2_accesses", float_of_int counts.l2);
          ("core.cc_accesses", float_of_int counts.cc);
        ]
      @ memory_models ~seed
      @ Metrics.op_percentiles (side_ms rows)
      @ Metrics.simulated rows)
