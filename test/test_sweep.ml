(* Tests for the design-space explorer (Tce_runner.Sweep) and the
   content-addressed cell cache (Tce_runner.Cache):
   (a) sweep-spec grammar: canonical round-trips, value sorting/dedup,
       and loud rejection of unknown keys, empty value lists, duplicate
       axes, non-positive values and over-wide Class Lists;
   (b) grid expansion: invalid entries/ways combinations skipped and
       counted, matrix order point-major, empty grids rejected;
   (c) cache keys: label-order independence, duplicate-label rejection,
       and geometry sensitivity through Store.config_hash;
   (d) cache-hit byte identity: a warm 5-workload sweep performs zero
       simulations and serializes byte-identically to the cold one;
   (e) LRU prune: evicts oldest-first and bounds the directory size;
   (f) end-to-end: a supervised sweep over the real bench binary is
       byte-identical to the in-process run, and resuming from a torn
       mid-grid journal completes with resume provenance;
   (g) shared off halves: a half does not depend on the config fields it
       cannot read, a sweep's rows equal the per-cell pair at each point,
       and a sweep simulates each workload's off half once;
   (h) the pair driver: a matrix shaped like the ablations simulates each
       distinct half of a workload once, and no half is shared across
       workloads;
   (i) save with dir "" writes the latest document and no archive;
   (j) decoding: an absent optional field keeps its default, a mistyped
       one is an error naming it. *)

open Tce_runner
module W = Tce_workloads.Workload

let expect_axes spec =
  match Sweep.parse_spec spec with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse_spec %S: %s" spec e

(* --- spec grammar --- *)

let test_spec_roundtrip () =
  (* values arrive unsorted with duplicates; the canonical string sorts
     and dedups, and re-parsing it is a fixpoint *)
  let a = expect_axes "cc.ways=4,1,2 cc.entries=128,64,128" in
  Alcotest.(check (list int)) "entries sorted+deduped" [ 64; 128 ] a.Sweep.ax_entries;
  Alcotest.(check (list int)) "ways sorted" [ 1; 2; 4 ] a.Sweep.ax_ways;
  let s = Sweep.axes_to_string a in
  (match Sweep.parse_spec s with
  | Ok b -> Alcotest.(check bool) "canonical string is a fixpoint" true (a = b)
  | Error e -> Alcotest.failf "re-parse of %S: %s" s e);
  (* an absent axis sweeps only the paper default *)
  let d = expect_axes "cc.entries=64" in
  Alcotest.(check (list int)) "absent ways axis defaults" [ 2 ] d.Sweep.ax_ways;
  Alcotest.(check (list int)) "absent cl axis defaults" [ 7 ] d.Sweep.ax_sizes

let test_spec_rejections () =
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Sweep.parse_spec bad)))
    [
      "";
      "   ";
      "cc.bogus=1";
      "cc.entries";
      "cc.entries=";
      "cc.entries=,";
      "cc.entries=0";
      "cc.entries=-4";
      "cc.entries=abc";
      "cc.entries=64 cc.entries=128";
      "cl.size=8";
      "cl.size=0";
    ];
  (* unknown keys name the known axes so the error is actionable *)
  match Sweep.parse_spec "cc.bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error e ->
    Alcotest.(check bool) "error lists known axes" true
      (Astring.String.is_infix ~affix:"cc.entries" e)

let test_expand_skips_invalid () =
  let a = expect_axes "cc.entries=64,96 cc.ways=2,3" in
  let points, skipped = Sweep.expand a in
  (* 64/3 has no whole number of sets; the other three combinations do *)
  Alcotest.(check int) "valid points" 3 (List.length points);
  Alcotest.(check int) "invalid combinations counted" 1 skipped;
  Alcotest.(check bool) "64x3 absent" true
    (not
       (List.exists
          (fun p -> p.Sweep.entries = 64 && p.Sweep.ways = 3)
          points))

let test_matrix_point_major () =
  let points, _ = Sweep.expand (expect_axes "cc.entries=64,128") in
  let ws =
    List.filter_map Tce_workloads.Workloads.by_name
      [ "controlflow-recursive"; "deopt-storm" ]
  in
  let m = Sweep.matrix points ws in
  Alcotest.(check int) "4 cells" 4 (List.length m);
  Alcotest.(check (list string)) "point-major, workload-minor"
    [ "64/controlflow-recursive"; "64/deopt-storm"; "128/controlflow-recursive";
      "128/deopt-storm" ]
    (List.map
       (fun (p, w) -> Printf.sprintf "%d/%s" p.Sweep.entries w.W.name)
       m)

let test_empty_grid_raises () =
  let a = expect_axes "cc.entries=64 cc.ways=3" in
  let points, skipped = Sweep.expand a in
  Alcotest.(check int) "no valid points" 0 (List.length points);
  Alcotest.(check int) "the combination was counted" 1 skipped;
  match Sweep.run ~axes:a [] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "empty grid must raise"

(* --- cache keys --- *)

let test_key_label_permutation () =
  let parts = [ ("kind", "x"); ("workload", "w"); ("config", "c") ] in
  let k = Cache.key parts in
  List.iter
    (fun perm ->
      Alcotest.(check string) "label order is irrelevant" k (Cache.key perm))
    [
      [ ("workload", "w"); ("config", "c"); ("kind", "x") ];
      [ ("config", "c"); ("kind", "x"); ("workload", "w") ];
    ];
  Alcotest.(check bool) "a changed value changes the key" true
    (k <> Cache.key [ ("kind", "x"); ("workload", "w'"); ("config", "c") ]);
  match Cache.key [ ("a", "1"); ("a", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label must be rejected"

let test_bench_key_geometry_sensitivity () =
  let w = List.hd (Tce_workloads.Workloads.selected) in
  let default = Cache.bench_key w in
  Alcotest.(check string) "explicit default config keys identically" default
    (Cache.bench_key ~config:Tce_engine.Engine.default_config w);
  let small =
    Sweep.config_of_point { Sweep.entries = 64; ways = 2; cl_size = 7 }
  in
  Alcotest.(check bool) "geometry reaches the key" true
    (default <> Cache.bench_key ~config:small w);
  let narrow =
    Sweep.config_of_point { Sweep.entries = 128; ways = 2; cl_size = 4 }
  in
  Alcotest.(check bool) "class-list size reaches the key" true
    (default <> Cache.bench_key ~config:narrow w)

(* --- cache-hit byte identity --- *)

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let mk_workload name body =
  W.make ~suite:W.Octane ~selected:false name body

let roster5 =
  List.map
    (fun (name, stride) ->
      mk_workload name
        (Printf.sprintf
           "function bench() { var s = %d; for (var i = 0; i < 40; i++) { s = (s + i * %d) & 1023; } return s; }"
           stride stride))
    [ ("cache-a", 1); ("cache-b", 2); ("cache-c", 3); ("cache-d", 5);
      ("cache-e", 7) ]

let sweep_bytes t =
  Tce_obs.Json.to_string (Sweep.to_json (Sweep.normalize t))

let test_warm_sweep_byte_identical () =
  let dir = tmp_dir "tce-cache-bytes" in
  let axes = expect_axes "cc.entries=64" in
  let cold_cache = Cache.create ~dir () in
  let cold = Sweep.run ~cache:cold_cache ~axes roster5 in
  let cs = Cache.stats cold_cache in
  Alcotest.(check int) "cold: no hits" 0 cs.Cache.hits;
  Alcotest.(check int) "cold: one miss per cell" 5 cs.Cache.misses;
  let warm_cache = Cache.create ~dir () in
  let warm = Sweep.run ~cache:warm_cache ~axes roster5 in
  let wst = Cache.stats warm_cache in
  Alcotest.(check int) "warm: every cell a hit" 5 wst.Cache.hits;
  Alcotest.(check int) "warm: zero simulations" 0 wst.Cache.misses;
  Alcotest.(check string) "warm sweep byte-identical to cold" (sweep_bytes cold)
    (sweep_bytes warm);
  (* the cached rows carry real simulated data, not stale defaults *)
  let uncached = Sweep.run ~axes roster5 in
  Alcotest.(check string) "and to an uncached run" (sweep_bytes uncached)
    (sweep_bytes warm);
  List.iter2
    (fun (_, (a : Record.workload)) (_, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministically equal" a.Record.name)
        true
        (Record.equal_deterministic a b))
    uncached.Sweep.cells warm.Sweep.cells

let test_one_axis_change_resimulates_only_new_cells () =
  let dir = tmp_dir "tce-cache-axis" in
  let c0 = Cache.create ~dir () in
  ignore (Sweep.run ~cache:c0 ~axes:(expect_axes "cc.entries=64") roster5);
  let c1 = Cache.create ~dir () in
  ignore
    (Sweep.run ~cache:c1 ~axes:(expect_axes "cc.entries=64,128") roster5);
  let s = Cache.stats c1 in
  Alcotest.(check int) "old axis value served from cache" 5 s.Cache.hits;
  Alcotest.(check int) "only the new axis value simulated" 5 s.Cache.misses

(* --- LRU prune --- *)

let test_prune_evicts_oldest_first () =
  let dir = tmp_dir "tce-cache-prune" in
  let c = Cache.create ~dir () in
  let key i = Printf.sprintf "%032d" i in
  let payload i =
    Tce_obs.Json.Obj [ ("cell", Tce_obs.Json.Str (String.make 64 (Char.chr (65 + i)))) ]
  in
  for i = 0 to 9 do
    Cache.store c ~key:(key i) (payload i);
    (* deterministic LRU clock: cell i was last used at epoch + i + 1
       (0.0/0.0 would mean "now" to Unix.utimes) *)
    Unix.utimes (Filename.concat dir (key i ^ ".json"))
      (float_of_int (i + 1))
      (float_of_int (i + 1))
  done;
  let total = Cache.size_bytes ~dir () in
  Alcotest.(check bool) "ten cells on disk" true (total > 0);
  let max_bytes = total / 2 in
  let removed, freed = Cache.prune ~dir ~max_bytes () in
  Alcotest.(check bool) "something evicted" true (removed > 0);
  Alcotest.(check bool) "freed matches eviction" true (freed > 0);
  Alcotest.(check bool) "size bounded" true (Cache.size_bytes ~dir () <= max_bytes);
  (* oldest mtimes go first: cell 0 must be gone, cell 9 must survive *)
  Alcotest.(check bool) "oldest evicted" false
    (Sys.file_exists (Filename.concat dir (key 0 ^ ".json")));
  Alcotest.(check bool) "newest kept" true
    (Sys.file_exists (Filename.concat dir (key 9 ^ ".json")));
  let again, _ = Cache.prune ~dir ~max_bytes () in
  Alcotest.(check int) "prune is idempotent under the bound" 0 again

(* --- end-to-end over the real bench binary --- *)

let log_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "tce-sweep-test-logs"

let bench_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let require_bench_exe () =
  if not (Sys.file_exists bench_exe) then
    Alcotest.failf "bench binary not found at %s" bench_exe

let e2e_cfg =
  {
    Supervise.default_config with
    Supervise.cell_timeout_s = 120.0;
    backoff_base_s = 0.01;
    backoff_cap_s = 0.05;
    verbose = false;
  }

let e2e_roster =
  List.filter_map Tce_workloads.Workloads.by_name
    [ "controlflow-recursive"; "deopt-storm" ]

let e2e_axes = expect_axes "cc.entries=64,128"
let tmp_journal () = Filename.temp_file "tce-sweep-journal" ".jsonl"

let test_e2e_supervised_byte_identical () =
  require_bench_exe ();
  let serial = Sweep.run ~axes:e2e_axes e2e_roster in
  let sup =
    Sweep.run ~exe:bench_exe ~log_dir ~supervise:e2e_cfg
      ~journal_path:(tmp_journal ()) ~shards:2 ~worker_args:[] ~axes:e2e_axes
      e2e_roster
  in
  Alcotest.(check string) "supervised sweep byte-identical to in-process"
    (sweep_bytes serial) (sweep_bytes sup)

let test_e2e_resume_mid_grid () =
  require_bench_exe ();
  let serial = Sweep.run ~axes:e2e_axes e2e_roster in
  let journal_path = tmp_journal () in
  let full =
    Sweep.run ~exe:bench_exe ~log_dir ~supervise:e2e_cfg ~journal_path
      ~shards:2 ~worker_args:[] ~axes:e2e_axes e2e_roster
  in
  Alcotest.(check string) "full supervised run byte-identical"
    (sweep_bytes serial) (sweep_bytes full);
  (* keep the header and two complete cells plus a torn fragment, as a
     parent crash mid-grid would leave behind *)
  let lines =
    match Store.journal_lines journal_path with
    | Ok (h :: a :: b :: _) -> [ h; a; b ]
    | Ok _ -> Alcotest.fail "journal too short"
    | Error e -> Alcotest.fail e
  in
  let truncated = Filename.temp_file "tce-sweep-journal-torn" ".jsonl" in
  let oc = open_out truncated in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  output_string oc "{\"torn";
  close_out oc;
  let resumed =
    Sweep.run ~exe:bench_exe ~log_dir ~supervise:e2e_cfg
      ~journal_path:(tmp_journal ()) ~resume:truncated ~shards:2
      ~worker_args:[] ~axes:e2e_axes e2e_roster
  in
  Alcotest.(check int) "two cells replayed from the journal" 2
    (List.length resumed.Sweep.resumed_rows);
  Alcotest.(check string) "resumed run byte-identical to in-process"
    (sweep_bytes serial) (sweep_bytes resumed)

(* --- shared off halves --- *)

let by_names names =
  List.map
    (fun n ->
      match Tce_workloads.Workloads.by_name n with
      | Some w -> w
      | None -> Alcotest.failf "%s missing from the registry" n)
    names

(* The pair driver simulates each distinct half once per process, keyed
   by Engine.effective_config: that is sound only because a
   mechanism-off run never touches the Class Cache, the Class List or
   hoisting, and a mechanism-on run never emits a Checked Load. *)
let test_half_ignores_unread_fields () =
  let module E = Tce_engine.Engine in
  let off p =
    { (Sweep.config_of_point p) with Tce_engine.Engine.mechanism = false }
  in
  List.iter
    (fun w ->
      let at config = Tce_metrics.Harness.run ~config w in
      let default = at (off Sweep.default_point) in
      List.iter
        (fun p ->
          if compare default (at (off p)) <> 0 then
            Alcotest.failf "%s: mechanism-off result differs at %s" w.W.name
              (Sweep.point_name p))
        [
          { Sweep.entries = 32; ways = 1; cl_size = 1 };
          { Sweep.entries = 256; ways = 4; cl_size = 4 };
        ];
      let d = E.default_config in
      if compare default (at { d with E.mechanism = false; hoisting = false }) <> 0 then
        Alcotest.failf "%s: mechanism-off result differs without hoisting" w.W.name;
      if compare (at d) (at { d with E.checked_load = true }) <> 0 then
        Alcotest.failf "%s: mechanism-on result differs under checked_load" w.W.name)
    (by_names [ "stanford-crypto-ccm"; "deopt-storm"; "controlflow-recursive" ]
    @ [ Tce_workloads.Synthetic.elem_stores 32 ])

let shared_roster = by_names [ "controlflow-recursive"; "deopt-storm" ]
let shared_axes = expect_axes "cc.entries=64,128 cl.size=4,7"
let shared_sweep = lazy (Sweep.run ~axes:shared_axes shared_roster)

(* Every row equals the pair the sweep used to simulate per cell: both
   halves under the point's geometry. *)
let test_rows_equal_per_cell_pairs () =
  let t = Lazy.force shared_sweep in
  Alcotest.(check int) "2x2 points x 2 workloads" 8 (List.length t.Sweep.cells);
  List.iter2
    (fun (p, row) (q, w) ->
      let off, on =
        Tce_metrics.Harness.run_pair ~config:(Sweep.config_of_point q) w
      in
      if
        p <> q
        || not
             (Record.equal_deterministic row
                (Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on))
      then
        Alcotest.failf "%s at %s differs from its per-cell pair" w.W.name
          (Sweep.point_name q))
    t.Sweep.cells
    (Sweep.matrix t.Sweep.points shared_roster)

(* The cell that simulates a workload's off half reports its host time;
   the cells that reuse it report 0. *)
let check_off_half_once (t : Sweep.t) =
  List.iter
    (fun (w : W.t) ->
      let timed =
        List.filter
          (fun (_, (r : Record.workload)) ->
            r.Record.name = w.W.name && r.Record.wall_seconds_off > 0.0)
          t.Sweep.cells
      in
      Alcotest.(check int)
        (w.W.name ^ ": one row simulated the off half")
        1 (List.length timed))
    shared_roster

let test_off_half_simulated_once () =
  check_off_half_once (Lazy.force shared_sweep)

(* Sharded, each workload's cells run in one worker process, so the off
   half is still simulated once per workload, and the rows are the serial
   sweep's. *)
let test_off_half_once_sharded () =
  require_bench_exe ();
  let serial = Lazy.force shared_sweep in
  let sharded =
    Sweep.run ~exe:bench_exe ~log_dir ~supervise:e2e_cfg
      ~journal_path:(tmp_journal ()) ~shards:2 ~worker_args:[]
      ~axes:shared_axes shared_roster
  in
  Alcotest.(check int) "4 points x 2 workloads" 8
    (List.length sharded.Sweep.cells);
  List.iter2
    (fun (p, a) (q, b) ->
      if p <> q || not (Record.equal_deterministic a b) then
        Alcotest.failf "%s at %s differs from the serial sweep" a.Record.name
          (Sweep.point_name q))
    serial.Sweep.cells sharded.Sweep.cells;
  check_off_half_once sharded

(* --- the pair driver shares a workload's equal halves --- *)

(* Ablations A's, C's and D's shapes over one workload: three Class Cache
   geometries, hoisting off and on, and the default config without and
   with Checked Load. Seven halves are distinct: the default and the
   Checked Load mechanism-off runs, and five mechanism-on runs. *)
let shaped_pairs =
  let module E = Tce_engine.Engine in
  let d = E.default_config in
  let geometry entries ways =
    { d with E.cc_config = { Tce_core.Class_cache.entries; ways } }
  in
  List.map
    (fun c -> (c, Tce_workloads.Synthetic.elem_stores 32))
    [ geometry 32 1; geometry 64 2; geometry 256 4; { d with E.hoisting = false };
      d; d; { d with E.checked_load = true } ]

let test_pairs_share_halves () =
  let module E = Tce_engine.Engine in
  let module H = Tce_metrics.Harness in
  let timed = Hashtbl.create 8 in
  List.iter2
    (fun (config, w) ((row : Record.workload), figures) ->
      let off, on = H.run_pair ~config w in
      let pair = Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on in
      if not (Record.equal_deterministic row pair) then
        Alcotest.failf "%s: a row differs from its cell's pair" w.W.name;
      if figures <> Some (H.Figures.of_pair off on) then
        Alcotest.failf "%s: a figure block differs from its cell's pair" w.W.name;
      List.iter
        (fun (mechanism, wall) ->
          let half = E.effective_config { config with E.mechanism } in
          let k = Cache.bench_key ~config:half w in
          let n = Option.value ~default:0 (Hashtbl.find_opt timed k) in
          Hashtbl.replace timed k (if wall > 0.0 then n + 1 else n))
        [ (false, row.Record.wall_seconds_off); (true, row.Record.wall_seconds_on) ])
    shaped_pairs (Runner.run_pairs shaped_pairs);
  Alcotest.(check int) "distinct halves" 7 (Hashtbl.length timed);
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "one row timed each distinct half" 1 n)
    timed

(* Halves are shared within a workload only: two workloads of one source
   each simulate both their halves. *)
let test_no_sharing_across_workloads () =
  let src =
    "function bench() { var s = 0; for (var i = 0; i < 40; i++) { s = (s + i) & 1023; } \
     return s; }"
  in
  let r = Runner.run_suite [ mk_workload "twin-a" src; mk_workload "twin-b" src ] in
  List.iter
    (fun (w : Record.workload) ->
      if not (w.Record.wall_seconds_off > 0.0 && w.Record.wall_seconds_on > 0.0) then
        Alcotest.failf "%s: a half was not simulated" w.Record.name)
    r.Record.workloads

(* --- save without an archive --- *)

let test_save_without_archive () =
  let dir = tmp_dir "tce-sweep-save" in
  let latest = Filename.concat dir "SWEEP_latest.json" in
  let t = Sweep.run ~axes:(expect_axes "cc.entries=64") [ List.hd roster5 ] in
  Alcotest.(check (option string)) "no archive" None
    (Sweep.save ~latest ~dir:"" t);
  Alcotest.(check (list string)) "only the latest document written"
    [ "SWEEP_latest.json" ]
    (Array.to_list (Sys.readdir dir));
  (match Sweep.load latest with
  | Ok t' -> Alcotest.(check bool) "latest round-trips" true (Sweep.equal t t')
  | Error e -> Alcotest.fail e);
  let archives = Filename.concat dir "archive" in
  match Sweep.save ~latest ~dir:archives t with
  | None -> Alcotest.fail "an archive directory was given"
  | Some path ->
    Alcotest.(check bool) "archive written" true (Sys.file_exists path);
    Alcotest.(check string) "under the archive directory" archives
      (Filename.dirname path)

(* --- decoding --- *)

(* An optional field of a sweep document keeps its default when absent and
   is an error naming it when present but mistyped. *)
let test_rejects_mistyped_fields () =
  let module J = Tce_obs.Json in
  let t = Sweep.run ~axes:(expect_axes "cc.entries=64") [ List.hd roster5 ] in
  let edit f =
    match Sweep.to_json t with
    | J.Obj top ->
      J.Obj
        (List.map
           (function "data", J.Obj d -> ("data", J.Obj (f d)) | kv -> kv)
           top)
    | _ -> Alcotest.fail "a sweep document is not an object"
  in
  let set name v = edit (fun d -> (name, v) :: List.remove_assoc name d) in
  let optional = [ "roster"; "cache_hits"; "cache_misses"; "skipped_points" ] in
  let older = edit (List.filter (fun (k, _) -> not (List.mem k optional))) in
  (match Sweep.of_json older with
  | Ok t' ->
    Alcotest.(check (list string)) "absent roster is empty" [] t'.Sweep.roster;
    Alcotest.(check (list int)) "absent counts are zero" [ 0; 0; 0 ]
      [ t'.Sweep.cache_hits; t'.Sweep.cache_misses; t'.Sweep.skipped_points ]
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (name, v) ->
      match Sweep.of_json (set name v) with
      | Ok _ -> Alcotest.failf "%s = %s accepted" name (J.to_string v)
      | Error e ->
        if not (Astring.String.is_infix ~affix:(Printf.sprintf "%S" name) e) then
          Alcotest.failf "%s = %s: error %S does not name the field" name
            (J.to_string v) e)
    [
      ("resumed_rows", J.List [ J.Int 3; J.Str "x"; J.Null ]);
      ("resumed_rows", J.Str "x");
      ("roster", J.List [ J.Str "cache-a"; J.Int 1 ]);
      ("roster", J.Int 1);
      ("cache_hits", J.Str "3");
      ("cache_misses", J.Float 1.5);
      ("skipped_points", J.Null);
      ("quarantined", J.Str "x");
    ]

let () =
  Alcotest.run "sweep"
    [
      ( "spec",
        [
          Alcotest.test_case "canonical round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "bad specs rejected" `Quick test_spec_rejections;
          Alcotest.test_case "invalid combinations skipped" `Quick
            test_expand_skips_invalid;
          Alcotest.test_case "matrix point-major" `Quick test_matrix_point_major;
          Alcotest.test_case "empty grid raises" `Quick test_empty_grid_raises;
        ] );
      ( "cache-key",
        [
          Alcotest.test_case "label-order independent" `Quick
            test_key_label_permutation;
          Alcotest.test_case "geometry sensitivity" `Quick
            test_bench_key_geometry_sensitivity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm sweep byte-identical, zero sims" `Quick
            test_warm_sweep_byte_identical;
          Alcotest.test_case "one-axis change re-simulates only new cells"
            `Quick test_one_axis_change_resimulates_only_new_cells;
          Alcotest.test_case "LRU prune bounds and eviction order" `Quick
            test_prune_evicts_oldest_first;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "supervised sweep byte-identical" `Slow
            test_e2e_supervised_byte_identical;
          Alcotest.test_case "resume mid-grid" `Slow test_e2e_resume_mid_grid;
        ] );
      ( "off-half",
        [
          Alcotest.test_case "mechanism-off ignores geometry" `Slow
            test_half_ignores_unread_fields;
          Alcotest.test_case "rows equal per-cell pairs" `Slow
            test_rows_equal_per_cell_pairs;
          Alcotest.test_case "off half simulated once" `Slow
            test_off_half_simulated_once;
          Alcotest.test_case "off half once per workload, sharded" `Slow
            test_off_half_once_sharded;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "equal halves of a workload simulated once" `Quick
            test_pairs_share_halves;
          Alcotest.test_case "no halves shared across workloads" `Quick
            test_no_sharing_across_workloads;
        ] );
      ( "save",
        [
          Alcotest.test_case "mistyped optional fields rejected" `Quick
            test_rejects_mistyped_fields;
          Alcotest.test_case "dir \"\" writes no archive" `Quick
            test_save_without_archive;
        ] );
    ]
