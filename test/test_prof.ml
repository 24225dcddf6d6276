(* Tests for the cycle-attribution profiler:
   (a) per-category reconciliation on a multi-workload sweep — every
       machine cycle and baseline instruction lands in exactly one cell;
   (b) profiling never changes a simulated number: a profiled roster
       cell's row and figures equal the unprofiled cell's, and a
       store-free workload's derived mechanism-on profile equals one
       simulated under the mechanism;
   (c) the collapsed-stack export round-trips through parse_folded, its
       machine-side counts are exact, and richards' per-pc attribution is
       pinned by digest;
   (d) summaries round-trip through the prof-report JSON;
   (e) the checks-off vs checks-on differential has the right sign — the
       mechanism removes check cycles, it does not add them;
   (f) the gate never looks at host wall time: the same verdicts whatever
       the wall fields hold;
   (g) run-vs-run drift between two prof-report files on disk names the
       cost kind that moved, and finds none between identical files. *)

module P = Tce_prof.Profile
module R = Tce_prof.Report
module H = Tce_metrics.Harness

let workload name =
  match Tce_workloads.Workloads.by_name name with
  | Some w -> w
  | None -> Alcotest.failf "workload %s not in registry" name

(* The profiled roster row of [w], its cell and its profile, as bench
   --profile computes it. *)
let profiled_cell w = (Tce_runner.Runner.profiled_bench_cells [ w ]).Tce_runner.Shard.run 0

(* One profiled cell per workload, shared across tests. summarize fails
   unless the per-category sums reconcile exactly, so forcing this lazy
   is assertion (a) for the named workloads. *)
let sweep_names = [ "richards"; "deltablue"; "splay" ]

let sweep =
  lazy (List.map (fun n -> (n, profiled_cell (workload n))) sweep_names)

let profiled name = snd (List.assoc name (Lazy.force sweep))

(* Both sides of a profiled cell: summary and folded lines. *)
let sides (p : Tce_runner.Runner.profile) =
  [
    ("off", p.folded_off, Option.get p.pair.R.p_off);
    ("on", p.folded_on, Option.get p.pair.R.p_on);
  ]

(* --- (a) reconciliation --- *)

let test_reconciliation_sweep () =
  List.iter
    (fun (name, (_, p)) ->
      List.iter
        (fun (side, _, (s : P.summary)) ->
          let sum a = Array.fold_left (fun acc (_, v) -> acc + v) 0 a in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: by_cost sums to machine cycles" name side)
            s.P.machine_cycles (sum s.P.by_cost);
          Alcotest.(check int)
            (Printf.sprintf "%s %s: by_label sums to machine cycles" name side)
            s.P.machine_cycles (sum s.P.by_label);
          Alcotest.(check int)
            (Printf.sprintf "%s %s: base_by_label sums to baseline instrs"
               name side)
            s.P.baseline_instrs (sum s.P.base_by_label);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s %s: total is machine + instrs*cpi" name side)
            (float_of_int s.P.machine_cycles
            +. (float_of_int s.P.baseline_instrs *. s.P.baseline_cpi))
            s.P.total_cycles)
        (sides p))
    (Lazy.force sweep);
  (* a fourth profile shape: heavy string/array traffic *)
  ignore (profiled_cell (workload "json-stringify-tinderbox"))

(* --- (b) profiling changes no simulated number --- *)

(* The profiled cell's row and figures block equal the unprofiled
   cell's in every simulated field. *)
let test_bit_identity () =
  List.iter
    (fun (name, ((row, figures), _)) ->
      let plain_row, plain_figures =
        (Tce_runner.Runner.bench_cells [ workload name ]).Tce_runner.Shard.run 0
      in
      Alcotest.(check bool) (name ^ ": row equals the unprofiled row") true
        (Tce_runner.Record.equal_deterministic plain_row row);
      Alcotest.(check bool) (name ^ ": figures equal the unprofiled figures")
        true
        (figures <> None && figures = plain_figures))
    (Lazy.force sweep)

(* A store-free workload simulates one half: its mechanism-on side is
   derived from the off half's profile. It equals the profile of a
   mechanism-on Harness.run under a fresh profile, summary and folded
   lines alike. *)
let test_derived_on_side () =
  let w = workload "controlflow-recursive" in
  Alcotest.(check bool) "controlflow-recursive stores nothing" false
    (Tce_engine.Engine.stores
       (Tce_jit.Bc_compile.compile_source w.Tce_workloads.Workload.source));
  let _, p = profiled_cell w in
  let prof = P.create () in
  let config = { Tce_engine.Engine.default_config with mechanism = true; prof } in
  let r = H.run ~config w in
  let baseline_cpi =
    config.Tce_engine.Engine.mach_cfg.Tce_machine.Config.baseline_cpi
  in
  let summary =
    P.summarize prof ~program:"controlflow-recursive" ~mechanism:true
      ~machine_cycles:r.H.whole_opt_cycles
      ~baseline_instrs:r.H.whole_baseline_instrs ~baseline_cpi
  in
  Alcotest.(check bool) "derived on summary equals the simulated one" true
    (p.pair.R.p_on = Some summary);
  Alcotest.(check string) "derived on folded lines equal the simulated ones"
    (P.folded ~root:"controlflow-recursive;on" ~baseline_cpi prof)
    p.folded_on

(* --- (c) collapsed-stack round-trip --- *)

let test_folded_round_trip () =
  let p = profiled "deltablue" in
  List.iter
    (fun (side, folded, (s : P.summary)) ->
      let rows =
        match P.parse_folded folded with
        | Ok rows -> rows
        | Error e -> Alcotest.failf "parse_folded (%s): %s" side e
      in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' folded)
      in
      Alcotest.(check int)
        (side ^ ": one row per line") (List.length lines) (List.length rows);
      List.iter
        (fun (frames, count) ->
          if count <= 0 then Alcotest.failf "%s: non-positive count" side;
          if List.length frames < 3 then
            Alcotest.failf "%s: truncated frame stack" side)
        rows;
      (* machine-side counts are exact cycles: the optimized frames must
         sum back to the machine total (baseline frames are cpi-scaled and
         rounded per cell, so only the machine side is exact) *)
      let machine_sum =
        List.fold_left
          (fun acc (frames, count) ->
            if List.mem "optimized" frames then acc + count else acc)
          0 rows
      in
      Alcotest.(check int)
        (side ^ ": optimized frames sum to machine cycles")
        s.P.machine_cycles machine_sum;
      (* every line carries the root frames, so concatenated runs stay
         distinguishable in one flamegraph *)
      List.iter
        (fun (frames, _) ->
          match frames with
          | "deltablue" :: s2 :: _ when s2 = side -> ()
          | _ -> Alcotest.failf "%s: missing root frames" side)
        rows)
    (sides p)

(* Per-pc attribution, pinned: the MD5 of richards' folded profile text,
   mechanism off and on, as the per-instruction executor produced it. The
   sums above cannot see a cycle that moves between two (pc, cost) cells;
   this can. *)
let test_folded_pinned () =
  let p = profiled "richards" in
  Alcotest.(check string) "richards off: folded profile unchanged"
    "8c5a765bf5852ebc473110c2b5fc7810"
    (Digest.to_hex (Digest.string p.folded_off));
  Alcotest.(check string) "richards on: folded profile unchanged"
    "273939a2a78a9edcf1c7f60d4a5c774b"
    (Digest.to_hex (Digest.string p.folded_on))

let test_parse_folded_rejects_garbage () =
  (match P.parse_folded "frames-without-count" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a line without a count");
  match P.parse_folded "a;b notanumber" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-numeric count"

(* --- (d) JSON round-trips --- *)

let test_summary_json_round_trip () =
  let p = profiled "richards" in
  List.iter
    (fun (s : P.summary) ->
      match P.summary_of_json (P.summary_to_json s) with
      | Error e -> Alcotest.failf "summary_of_json: %s" e
      | Ok s' ->
        Alcotest.(check bool) "summary round-trips" true (s = s'))
    (List.map (fun (_, _, s) -> s) (sides p))

let test_suite_doc_round_trip () =
  let pairs =
    List.map (fun (_, (_, (p : Tce_runner.Runner.profile))) -> p.pair) (Lazy.force sweep)
  in
  let doc =
    R.suite_doc ~git_sha:"cafe01" ~config_hash:"deadbeef"
      ~created_utc:"2026-08-08T00:00:00Z" pairs
  in
  (* through text, like the file on disk *)
  match
    Result.bind
      (Tce_obs.Json.of_string (Tce_obs.Json.to_string_pretty doc))
      R.suite_of_json
  with
  | Error e -> Alcotest.failf "suite_of_json: %s" e
  | Ok pairs' ->
    Alcotest.(check bool) "suite round-trips" true (pairs = pairs')

(* --- (e) differential sign --- *)

let test_differential_sign () =
  let p = profiled "richards" in
  let pairs = [ p.pair ] in
  let deltas = R.label_deltas pairs in
  let delta label =
    match List.assoc_opt label deltas with
    | Some d -> d
    | None -> Alcotest.failf "label %s missing from deltas" label
  in
  (* the mechanism elides map checks wholesale on a monomorphic workload:
     removed cycles are positive by the report's orientation *)
  if delta "check-map" <= 0 then
    Alcotest.failf "check-map delta %d not positive" (delta "check-map");
  let check_total =
    List.fold_left
      (fun acc (label, d) ->
        if String.length label >= 6 && String.sub label 0 6 = "check-" then
          acc + d
        else acc)
      0 deltas
  in
  if check_total <= 0 then
    Alcotest.failf "aggregate check delta %d not positive" check_total;
  (* and the rendered table agrees with the raw totals *)
  let table = R.diff_table pairs in
  Alcotest.(check bool) "table mentions check-map" true
    (Astring.String.is_infix ~affix:"check-map" table)

(* --- (f) the gate ignores host wall time --- *)

let mk_rec ~wall name : Tce_runner.Record.workload =
  {
    Tce_runner.Record.name;
    suite = "Octane";
    iterations = 10;
    checksum = "0";
    cycles_off = 0.0;
    cycles_on = 0.0;
    whole_cycles_off = 0.0;
    whole_cycles_on = 0.0;
    checks_off = 0;
    checks_on = 0;
    checks_by_kind = [];
    guards_off = 0;
    guards_on = 0;
    deopts_on = 0;
    cc_exceptions_on = 0;
    cc_accesses_on = 0;
    cc_hit_rate_on = 0.0;
    speedup_pct = 0.0;
    check_removal_pct = 0.0;
    wall_seconds = wall;
    wall_seconds_off = wall;
    wall_seconds_on = wall;
  }

let test_gate_ignores_wall () =
  let mk wall : Tce_runner.Record.run =
    {
      Tce_runner.Record.git_sha = "cafe01";
      config_hash = "deadbeef";
      created_utc = "2026-08-08T00:00:00Z";
      jobs = 1;
      shards = 1;
      host_wall_seconds = wall;
      workloads = [ mk_rec ~wall "w" ];
      quarantined = [];
      resumed_rows = [];
      cache_hits = 0;
      cache_misses = 0;
      figures = [];
    }
  in
  List.iter
    (fun (base, cur) ->
      let r =
        Tce_runner.Gate.check_run ~baseline:(mk base) ~current:(mk cur) ()
      in
      let what = Printf.sprintf "wall %.1f -> %.1f" base cur in
      Alcotest.(check bool) (what ^ ": gate passes") true r.Tce_runner.Gate.ok;
      Alcotest.(check (list (pair string (list string))))
        (what ^ ": no row differs") [] r.Tce_runner.Gate.differ;
      Alcotest.(check (list string)) (what ^ ": nothing quarantined") []
        r.Tce_runner.Gate.quarantined)
    [ (1.0, 10.0); (10.0, 1.0); (0.0, 99.0); (2.0, 2.0) ]

(* --- (g) run-vs-run drift across two files --- *)

let read_suite path =
  match
    Result.bind
      (Tce_obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all))
      R.suite_of_json
  with
  | Ok pairs -> pairs
  | Error e -> Alcotest.failf "%s: %s" path e

(* The cost kinds whose delta column is nonzero in a [diff_runs] table. *)
let drifted_costs table =
  let rec rows = function
    | l :: _ :: rest when Astring.String.is_prefix ~affix:"machine cycles by" l
      ->
      rest
    | _ :: rest -> rows rest
    | [] -> []
  in
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | [ kind; _; _; delta ] when int_of_string delta <> 0 -> Some kind
      | _ -> None)
    (rows (String.split_on_char '\n' table))

let test_profile_diff_files () =
  let pairs =
    List.map (fun (_, (_, (p : Tce_runner.Runner.profile))) -> p.pair) (Lazy.force sweep)
  in
  let first = List.hd pairs in
  let on = Option.get first.R.p_on in
  let kind, v = on.P.by_cost.(0) in
  let by_cost = Array.copy on.P.by_cost in
  by_cost.(0) <- (kind, v + 1000);
  let perturbed =
    { first with R.p_on = Some { on with P.by_cost } } :: List.tl pairs
  in
  let write pairs =
    let path = Filename.temp_file "tce_prof" ".json" in
    Tce_obs.Export.to_file ~path
      (R.suite_doc ~git_sha:"cafe01" ~config_hash:"deadbeef"
         ~created_utc:"2026-08-08T00:00:00Z" pairs);
    path
  in
  let base_path = write pairs and cur_path = write perturbed in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ base_path; cur_path ])
    (fun () ->
      let base = read_suite base_path and cur = read_suite cur_path in
      Alcotest.(check (list string)) "names the perturbed cost kind" [ kind ]
        (drifted_costs (R.diff_runs ~base ~cur));
      let same = R.diff_runs ~base ~cur:base in
      Alcotest.(check (list string)) "identical files: no cost drift" []
        (drifted_costs same);
      let drift_rows =
        List.filter
          (Astring.String.is_suffix ~affix:"%")
          (String.split_on_char '\n' same)
      in
      Alcotest.(check int) "identical files: one drift row per workload"
        (List.length pairs) (List.length drift_rows);
      Alcotest.(check bool) "identical files: every total drift is +0.00%" true
        (List.for_all (Astring.String.is_suffix ~affix:"+0.00%") drift_rows))

let () =
  Alcotest.run "tce_prof"
    [
      ( "reconciliation",
        [
          Alcotest.test_case "multi-workload sweep" `Quick
            test_reconciliation_sweep;
          Alcotest.test_case "bit-identical to unprofiled" `Quick
            test_bit_identity;
          Alcotest.test_case "derived on side equals a simulated one" `Quick
            test_derived_on_side;
        ] );
      ( "folded",
        [
          Alcotest.test_case "round-trip" `Quick test_folded_round_trip;
          Alcotest.test_case "richards per-pc attribution pinned" `Quick
            test_folded_pinned;
          Alcotest.test_case "rejects garbage" `Quick
            test_parse_folded_rejects_garbage;
        ] );
      ( "json",
        [
          Alcotest.test_case "summary round-trip" `Quick
            test_summary_json_round_trip;
          Alcotest.test_case "suite doc round-trip" `Quick
            test_suite_doc_round_trip;
        ] );
      ( "differential",
        [ Alcotest.test_case "sign" `Quick test_differential_sign ] );
      ( "gate-wall",
        [ Alcotest.test_case "non-gating" `Quick test_gate_ignores_wall ] );
      ( "run-diff",
        [
          Alcotest.test_case "profile diff across two files" `Quick
            test_profile_diff_files;
        ] );
    ]
