(* Tests for the benchmark runner, the persistent result store and the
   perf-regression gate:
   (a) in-process roster records are sane, and the in-process mode of the
       cell driver never forces a cost, reuses a warm cache and rejects
       jobs > 1;
   (b) the gate passes a clean run and fails a row that differs in any
       simulated field, naming the field (library report and end-to-end
       exit codes);
   (c) run records round-trip through the Tce_obs.Json store format, a
       stored run is one file, the scheduler's baseline cost table
       follows its file, and the document loaders name a path they cannot
       read;
   (d) the provenance SHA is resolved from synthetic repository layouts,
       streams packed-refs, and matches git's own answer on this
       checkout. *)

open Tce_runner

let mk_workload name body =
  Tce_workloads.Workload.make ~suite:Tce_workloads.Workload.Octane
    ~selected:false name body

(* Three small workloads with different profiles: monomorphic properties,
   polymorphic call sites, and array elements — enough to exercise the
   mechanism while keeping the suite fast. *)
let tiny_mono =
  mk_workload "runner-mono"
    {|
function Pt(x, y) { this.x = x; this.y = y; }
function bench() {
  var s = 0;
  for (var i = 0; i < 40; i++) { var p = new Pt(i, i + 1); s = (s + p.x + p.y) & 65535; }
  return s;
}
|}

let tiny_poly =
  mk_workload "runner-poly"
    {|
function A(v) { this.v = v; }
function B(v) { this.v = v; this.w = v; }
var os = array_new(0);
for (var i = 0; i < 30; i++) { if ((i & 1) == 0) { push(os, new A(i)); } else { push(os, new B(i)); } }
function bench() {
  var s = 0;
  for (var i = 0; i < 30; i++) { s = (s + os[i].v) & 65535; }
  return s;
}
|}

let tiny_elems =
  mk_workload "runner-elems"
    {|
var xs = array_new(0);
for (var i = 0; i < 48; i++) { push(xs, i * 3); }
function bench() {
  var s = 0;
  for (var i = 0; i < 48; i++) { s = (s + xs[i]) & 65535; }
  return s;
}
|}

let roster = [ tiny_mono; tiny_poly; tiny_elems ]

let resolve name =
  List.find_opt (fun w -> w.Tce_workloads.Workload.name = name) roster

let serial = lazy (Runner.run_suite roster).Record.workloads

(* --- (a) the in-process roster run --- *)

let test_records_sane () =
  List.iter
    (fun (r : Record.workload) ->
      Alcotest.(check bool) (r.Record.name ^ ": cycles positive") true
        (r.Record.cycles_on > 0.0 && r.Record.cycles_off > 0.0);
      Alcotest.(check bool) (r.Record.name ^ ": removal within [0,100]") true
        (r.Record.check_removal_pct >= 0.0 && r.Record.check_removal_pct <= 100.0);
      Alcotest.(check bool) (r.Record.name ^ ": mechanism removes checks") true
        (r.Record.checks_on <= r.Record.checks_off))
    (Lazy.force serial)

(* The in-process mode of the one cell driver: it never asks a cell for
   its cost (that parses the committed baseline), a warm cache runs
   nothing and returns the cold rows, and only [~jobs:1] is accepted. *)
let test_in_process_mode () =
  let journal_path = Filename.temp_file "tce-inproc-journal" ".jsonl" in
  let costly =
    {
      (Runner.bench_cells roster) with
      Shard.cost = (fun _ -> failwith "cost forced");
    }
  in
  let s = Shard.run ~journal_path ~shards:1 ~worker_args:[] costly in
  Alcotest.(check int) "cells whose cost raises still run" 3
    (List.length s.Shard.rows);
  let cache_dir = Filename.temp_file "tce-inproc-cache" "" in
  Sys.remove cache_dir;
  (* run [f] cold and warm over one cache dir: the warm run misses nothing *)
  let cold_warm what f =
    let cold = f (Cache.create ~dir:cache_dir ()) in
    let warm_cache = Cache.create ~dir:cache_dir () in
    let warm = f warm_cache in
    Alcotest.(check int) (what ^ ": warm run misses nothing") 0
      (Cache.stats warm_cache).Cache.misses;
    (cold, warm)
  in
  let cold, warm = cold_warm "bench" (fun cache -> Runner.run_suite ~cache roster) in
  List.iter2
    (fun (a : Record.workload) b ->
      Alcotest.(check bool) ("bench: warm row equals cold " ^ a.Record.name) true
        (Record.equal_deterministic a b))
    cold.Record.workloads warm.Record.workloads;
  (* the paper's figures read cached rows exactly as fresh ones *)
  let figures (run : Record.run) =
    let cells =
      List.map
        (fun (w : Record.workload) -> (w, List.assoc_opt w.Record.name run.Record.figures))
        run.Record.workloads
    in
    List.filter_map
      (fun (v : Experiments.view) ->
        match v.reads with
        | Experiments.All | Experiments.Selected -> Some (v.name, v.rows cells)
        | _ -> None)
      Experiments.views
  in
  Alcotest.(check bool) "bench: figures from warm rows equal cold" true
    (figures cold = figures warm);
  let cold, warm =
    cold_warm "campaign" (fun cache -> Campaign.run ~cache ~seed:7 roster)
  in
  Alcotest.(check bool) "campaign: warm cells equal cold" true
    (cold.Campaign.cells = warm.Campaign.cells);
  let axes = Result.get_ok (Sweep.parse_spec "cc.entries=64,128") in
  let cold, warm = cold_warm "sweep" (fun cache -> Sweep.run ~cache ~axes roster) in
  Alcotest.(check bool) "sweep: warm rows equal cold" true
    (Sweep.equal (Sweep.normalize cold) (Sweep.normalize warm));
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s ~jobs:2 was accepted" what
  in
  rejects "Runner.run_suite" (fun () -> ignore (Runner.run_suite ~jobs:2 []));
  rejects "Campaign.run" (fun () -> ignore (Campaign.run ~jobs:2 []));
  rejects "Sweep.run" (fun () -> ignore (Sweep.run ~jobs:2 ~axes []))

(* An entry that parses as JSON but that the codec rejects (here a row
   with no fields, as a profiled reader sees a plain row) is a miss, not
   a hit: the cell is simulated and its row re-installed over it. *)
let test_rejected_entry_is_a_miss () =
  let cache_dir = Filename.temp_file "tce-reject-cache" "" in
  Sys.remove cache_dir;
  let cells = Runner.bench_cells [ tiny_mono ] in
  let key = cells.Shard.key 0 in
  Cache.store (Cache.create ~dir:cache_dir ()) ~key (Tce_obs.Json.Obj []);
  let runs = ref 0 in
  let counted = { cells with Shard.run = (fun i -> incr runs; cells.Shard.run i) } in
  let journal_path = Filename.temp_file "tce-reject-journal" ".jsonl" in
  let s =
    Shard.run ~cache:(Cache.create ~dir:cache_dir ()) ~journal_path ~shards:1
      ~worker_args:[] counted
  in
  Alcotest.(check (pair int int)) "counted as one miss" (0, 1) s.Shard.cache_stats;
  Alcotest.(check int) "re-simulated" 1 !runs;
  let reread = Cache.create ~dir:cache_dir () in
  Alcotest.(check bool) "re-installed" true
    (Cache.find_decoded reread ~key Shard.cell_codec.Shard.decode <> None);
  Alcotest.(check (pair int int)) "and now a hit" (1, 0) (Cache.counts (Some reread))

(* --- store-free halves --- *)

let program (w : Tce_workloads.Workload.t) =
  Tce_jit.Bc_compile.compile_source w.Tce_workloads.Workload.source

let stores w = Tce_engine.Engine.stores (program w)

(* [push] stores through the element store: a program whose only store
   is a push call stores, and its mechanism-on half runs the Class Cache. *)
let test_push_is_a_store () =
  let w =
    mk_workload "runner-push"
      {|
var a = [];
function bench() {
  var s = 0;
  for (var i = 0; i < 40; i++) { push(a, i); s = (s + a[i]) & 1023; }
  return s;
}
|}
  in
  Array.iter
    (fun (f : Tce_jit.Bytecode.func) ->
      Array.iter
        (function
          | Tce_jit.Bytecode.SetProp _ | SetElem _ ->
            Alcotest.failf "%s holds a store other than push" f.Tce_jit.Bytecode.name
          | _ -> ())
        f.Tce_jit.Bytecode.code)
    (program w).Tce_jit.Bytecode.funcs;
  Alcotest.(check bool) "push counts as a store" true (stores w);
  let row = Runner.run_one w in
  Alcotest.(check bool) "the mechanism-on half accesses the Class Cache" true
    (row.Record.cc_accesses_on > 0);
  Alcotest.(check bool) "the mechanism-on half was simulated" true
    (row.Record.wall_seconds_on > 0.0)

(* The predicate is static: a store on a branch that never runs counts. *)
let test_dead_store_counts () =
  let src store =
    Printf.sprintf
      {|
var o = {};
function bench() {
  var s = 0;
  for (var i = 0; i < 40; i++) { s = (s + i) & 1023; if (s < 0) { %s } }
  return s;
}
|}
      store
  in
  Alcotest.(check bool) "a never-run property store counts" true
    (stores (mk_workload "runner-dead-store" (src "o.x = s;")));
  Alcotest.(check bool) "the same program without it stores nothing" false
    (stores (mk_workload "runner-no-store" (src "s = 1;")));
  let row = Runner.run_one (mk_workload "runner-dead-store" (src "o.x = s;")) in
  Alcotest.(check bool) "both halves simulated" true
    (row.Record.wall_seconds_off > 0.0 && row.Record.wall_seconds_on > 0.0)

(* A store-free workload's on half is its off half: the row simulates one
   half and equals the row of two independently simulated halves. *)
let test_store_free_row () =
  let w =
    mk_workload "runner-store-free"
      "function bench() { var s = 0; for (var i = 0; i < 40; i++) { s = (s + i) & 1023; } \
       return s; }"
  in
  Alcotest.(check bool) "stores nothing" false (stores w);
  let row = Runner.run_one w in
  Alcotest.(check (float 0.0)) "the on half reports no host time" 0.0
    row.Record.wall_seconds_on;
  Alcotest.(check bool) "the off half was simulated" true
    (row.Record.wall_seconds_off > 0.0);
  let off, on = Tce_metrics.Harness.run_pair w in
  Alcotest.(check bool) "row equals Record.of_pair of Harness.run_pair" true
    (Record.equal_deterministic row
       (Record.of_pair ~wall_off:0.0 ~wall_on:0.0 off on))

(* --- (b) the gate --- *)

let make_run workloads =
  Store.make_run ~host_wall_seconds:0.0 workloads

let test_gate_clean_pass () =
  let run = make_run (Lazy.force serial) in
  let report = Gate.check_run ~baseline:run ~current:run () in
  Alcotest.(check bool) "clean run passes" true report.Gate.ok;
  Alcotest.(check (list string)) "nothing missing" [] report.Gate.missing

let inject_slowdown pct (w : Record.workload) =
  { w with Record.cycles_on = w.Record.cycles_on *. (1.0 +. (pct /. 100.0)) }

(* [mutate] the first row only: the gate must fail on that row alone and
   name exactly [fields] in its report. *)
let gate_names_fields fields mutate =
  let base = make_run (Lazy.force serial) in
  let first = List.hd base.Record.workloads in
  let current =
    { base with Record.workloads = mutate first :: List.tl base.Record.workloads }
  in
  let report = Gate.check_run ~baseline:base ~current () in
  let what = String.concat "+" fields in
  Alcotest.(check bool) (what ^ ": fails the gate") false report.Gate.ok;
  match report.Gate.differ with
  | [ (name, lines) ] ->
    Alcotest.(check string) (what ^ ": the changed row") first.Record.name name;
    Alcotest.(check (list string)) (what ^ ": names the field(s)") fields
      (List.map (fun l -> List.hd (String.split_on_char ':' l)) lines)
  | d -> Alcotest.failf "%s: %d rows differ, not 1" what (List.length d)

let test_gate_fails_on_slowdown () =
  let base = make_run (Lazy.force serial) in
  let current =
    { base with Record.workloads = List.map (inject_slowdown 10.0) base.Record.workloads }
  in
  let report = Gate.check_run ~baseline:base ~current () in
  Alcotest.(check bool) "10% slowdown fails" false report.Gate.ok;
  (* every row differs, in cycles_on alone *)
  Alcotest.(check (list string)) "every workload differs"
    (List.map (fun (w : Tce_workloads.Workload.t) -> w.Tce_workloads.Workload.name) roster)
    (List.map fst report.Gate.differ);
  List.iter
    (fun (name, lines) ->
      match lines with
      | [ l ] ->
        Alcotest.(check bool) (name ^ ": names cycles_on") true
          (Astring.String.is_prefix ~affix:"cycles_on: base " l)
      | _ -> Alcotest.failf "%s: %d differing fields, not 1" name (List.length lines))
    report.Gate.differ

(* Simulated cycles have no noise, so a 1% change is a real one. *)
let test_gate_one_pct_slowdown_fails () =
  gate_names_fields [ "cycles_on" ] (inject_slowdown 1.0)

(* Fields the gate once read nothing of: each one alone fails a row. *)
let test_gate_every_simulated_field () =
  gate_names_fields [ "deopts_on" ] (fun w ->
      { w with Record.deopts_on = w.Record.deopts_on + 5 });
  gate_names_fields [ "cycles_off" ] (fun w ->
      { w with Record.cycles_off = w.Record.cycles_off *. 0.9 });
  gate_names_fields [ "whole_cycles_on" ] (fun w ->
      { w with Record.whole_cycles_on = w.Record.whole_cycles_on *. 1.5 });
  gate_names_fields [ "cc_hit_rate_on" ] (fun w ->
      { w with Record.cc_hit_rate_on = w.Record.cc_hit_rate_on -. 0.1 })

let test_gate_reports_base_and_current () =
  let base = make_run (Lazy.force serial) in
  let first = List.hd base.Record.workloads in
  let current =
    {
      base with
      Record.workloads =
        { first with Record.deopts_on = first.Record.deopts_on + 5 }
        :: List.tl base.Record.workloads;
    }
  in
  Alcotest.(check (list (pair string (list string))))
    "one line: field, base and current value"
    [
      ( first.Record.name,
        [
          Printf.sprintf "deopts_on: base %d, current %d" first.Record.deopts_on
            (first.Record.deopts_on + 5);
        ] );
    ]
    (Gate.check_run ~baseline:base ~current ()).Gate.differ

let test_gate_flags_check_removal_drop () =
  let base = make_run (Lazy.force serial) in
  let degrade (w : Record.workload) =
    { w with Record.check_removal_pct = w.Record.check_removal_pct -. 5.0 }
  in
  let current =
    { base with Record.workloads = List.map degrade base.Record.workloads }
  in
  let report = Gate.check_run ~baseline:base ~current () in
  Alcotest.(check bool) "removal drop fails" false report.Gate.ok

let test_gate_flags_checksum_change () =
  let base = make_run (Lazy.force serial) in
  let corrupt (w : Record.workload) = { w with Record.checksum = "corrupted" } in
  let current =
    { base with Record.workloads = List.map corrupt base.Record.workloads }
  in
  let report = Gate.check_run ~baseline:base ~current () in
  Alcotest.(check bool) "checksum change fails" false report.Gate.ok

let test_gate_config_mismatch () =
  let base = make_run (Lazy.force serial) in
  let current = { base with Record.config_hash = "0000" } in
  let report = Gate.check_run ~baseline:base ~current () in
  Alcotest.(check bool) "mismatched config hash flagged" true
    report.Gate.config_mismatch;
  Alcotest.(check bool) "and fails the gate" false report.Gate.ok

(* Moving kept checks from one kind to another with the totals flat fails
   the gate, naming both per-kind counts. *)
let test_gate_kind_mix_shift_fails () =
  let base = make_run (Lazy.force serial) in
  let clean = Gate.check_run ~baseline:base ~current:base () in
  Alcotest.(check bool) "clean run passes with nothing quarantined" true
    (clean.Gate.ok && clean.Gate.differ = [] && clean.Gate.missing = []
    && clean.Gate.quarantined = []);
  gate_names_fields [ "checks_by_kind[0].on"; "checks_by_kind[1].on" ]
    (fun w ->
      match w.Record.checks_by_kind with
      | (k1, o1, n1) :: (k2, o2, n2) :: rest ->
        { w with Record.checks_by_kind = (k1, o1, n1 - 1) :: (k2, o2, n2 + 1) :: rest }
      | _ -> Alcotest.fail "a row with fewer than two check kinds")

let test_gate_missing_workload () =
  let base = make_run (Lazy.force serial) in
  let current =
    { base with Record.workloads = [ List.hd base.Record.workloads ] }
  in
  let report = Gate.check_run ~baseline:base ~current () in
  Alcotest.(check int) "two workloads missing" 2
    (List.length report.Gate.missing);
  Alcotest.(check bool) "missing workloads fail the gate" false report.Gate.ok

(* End-to-end exit codes through baseline files on disk, exactly as
   bench/main.exe -- check drives it. *)
let test_gate_exit_codes () =
  let tmp = Filename.temp_file "tce_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let run = make_run (Lazy.force serial) in
      Store.save ~latest:tmp run;
      Alcotest.(check int) "clean gate exits 0" 0
        (Gate.run_gate ~baseline_path:tmp ~resolve ());
      (* bake a baseline that claims we used to be 10% faster *)
      let speedier (w : Record.workload) =
        { w with Record.cycles_on = w.Record.cycles_on *. 0.9 }
      in
      let doctored =
        { run with Record.workloads = List.map speedier run.Record.workloads }
      in
      Store.save ~latest:tmp doctored;
      Alcotest.(check int) "regressed gate exits 1" 1
        (Gate.run_gate ~baseline_path:tmp ~resolve ());
      Alcotest.(check int) "unreadable baseline exits 2" 2
        (Gate.run_gate ~baseline_path:"/nonexistent/baseline.json" ~resolve
           ()))

(* --- (c) JSON round-trip --- *)

let test_workload_json_round_trip () =
  List.iter
    (fun (w : Record.workload) ->
      match Record.workload_of_json (Record.workload_to_json w) with
      | Ok w' ->
        Alcotest.(check bool) (w.Record.name ^ ": round-trips") true
          (w = w')
      | Error e -> Alcotest.fail e)
    (Lazy.force serial)

(* The figure-input block: it round-trips with its row, a row without it
   (the committed baseline's form) decodes to [None], and a difference in
   one figure field is a different result. *)
let figures_run = lazy (Runner.run_suite [ tiny_poly ])

let test_figures_json () =
  let run = Lazy.force figures_run in
  let w = List.hd run.Record.workloads in
  let f = List.assoc w.Record.name run.Record.figures in
  let decode j =
    match Record.cell_of_json j with Ok c -> c | Error e -> Alcotest.fail e
  in
  let w', f' = decode (Record.cell_to_json (w, Some f)) in
  Alcotest.(check bool) "row round-trips" true (w = w');
  Alcotest.(check bool) "figures round-trip" true (f' = Some f);
  let _, none = decode (Record.workload_to_json w) in
  Alcotest.(check bool) "a row without the block decodes to None" true
    (none = None);
  (match
     Record.cell_of_json
       (match Record.cell_to_json (w, Some f) with
       | Tce_obs.Json.Obj kvs ->
         Tce_obs.Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "figures" then (k, Tce_obs.Json.Obj []) else (k, v))
              kvs)
       | j -> j)
   with
  | Ok _ -> Alcotest.fail "an empty figures block decoded"
  | Error e ->
    Alcotest.(check bool) ("error names the field: " ^ e) true
      (Astring.String.is_infix ~affix:"whole_instrs_off" e));
  let bumped =
    {
      run with
      Record.figures =
        [
          ( w.Record.name,
            {
              f with
              Tce_metrics.Harness.Figures.hidden_classes_on =
                f.Tce_metrics.Harness.Figures.hidden_classes_on + 1;
            } );
        ];
    }
  in
  Alcotest.(check bool) "one figure field apart: different runs" false
    (run = bumped);
  Alcotest.(check bool) "and different documents" false
    (Tce_obs.Json.to_string (Record.run_to_json (Record.normalize_run run))
    = Tce_obs.Json.to_string (Record.run_to_json (Record.normalize_run bumped)))

let test_run_json_round_trip_through_text () =
  let run = make_run (Lazy.force serial) in
  let text = Tce_obs.Json.to_string_pretty (Record.run_to_json run) in
  match Tce_obs.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Record.run_of_json j with
    | Error e -> Alcotest.fail e
    | Ok run' ->
      Alcotest.(check bool) "run survives emit+parse byte round-trip" true
        (run = run'))

let test_store_file_round_trip () =
  let tmp = Filename.temp_file "tce_store" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let run = make_run (Lazy.force serial) in
      Store.save ~latest:tmp run;
      match Store.load tmp with
      | Error e -> Alcotest.fail e
      | Ok run' ->
        Alcotest.(check bool) "store file round-trips" true
          (run = run'))

(* The scheduler's cost table follows the baseline file: a second lookup
   of an unchanged file reads the same costs, and a rewritten file is
   read again. *)
let test_baseline_costs_follow_the_file () =
  let tmp = Filename.temp_file "tce_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let run = make_run (Lazy.force serial) in
      let cost () = Store.baseline_cost_of_workload ~path:tmp () tiny_poly in
      let poly =
        List.find (fun (w : Record.workload) -> w.Record.name = "runner-poly")
          run.Record.workloads
      in
      let whole = Some (poly.Record.whole_cycles_off +. poly.Record.whole_cycles_on) in
      let check what want = Alcotest.(check (option (float 0.0))) what want (cost ()) in
      Store.save ~latest:tmp run;
      check "read from the file" whole;
      check "unchanged file, same costs" whole;
      Store.save ~latest:tmp
        {
          run with
          Record.workloads =
            List.filter (fun (w : Record.workload) -> w != poly) run.Record.workloads;
        };
      check "rewritten file is read again" None;
      Sys.remove tmp;
      check "absent file has no costs" None)

let test_rejects_wrong_kind () =
  let doc =
    Tce_obs.Export.document ~kind:"run-stats" (Tce_obs.Json.Obj [])
  in
  match Record.run_of_json doc with
  | Ok _ -> Alcotest.fail "accepted a non-bench-run document"
  | Error e -> Alcotest.(check bool) "error is descriptive" true (e <> "")

(* The three document loaders report a path they cannot read, a
   directory included, as an Error naming it rather than raising. *)
let test_loaders_name_the_path () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat dir "tce-no-such-document.json" in
  List.iter
    (fun (what, load) ->
      List.iter
        (fun path ->
          match load path with
          | Ok () -> Alcotest.failf "%s %s: loaded" what path
          | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: %S names the path" what path e)
              true
              (Astring.String.is_infix ~affix:path e)
          | exception e ->
            Alcotest.failf "%s %s raised %s" what path (Printexc.to_string e))
        [ dir; missing ])
    [
      ("Store.load", fun p -> Result.map ignore (Store.load p));
      ("Sweep.load", fun p -> Result.map ignore (Sweep.load p));
      ("Campaign.load", fun p -> Result.map ignore (Campaign.load p));
    ]

(* --- provenance: git_sha from the repository files --- *)

let sha_a = "0123456789abcdef0123456789abcdef01234567"
let sha_b = "89abcdef0123456789abcdef0123456789abcdef"

let write_file path text =
  Store.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f ()] run from [sub] below a fresh temporary directory that [layout]
   fills in first *)
let in_layout ?(sub = "") layout f =
  let root = Filename.temp_dir "tce-git-sha" "" in
  layout root;
  let dir = Filename.concat root sub in
  Store.mkdir_p dir;
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf root)
    (fun () ->
      Sys.chdir dir;
      f ())

let sha_in ?sub layout = in_layout ?sub layout Store.git_sha

(* A run is stored once: [save] and [save_prof] each write their latest
   file and nothing else — no [results/] tree beside it. *)
let test_store_one_file_per_run () =
  let run = make_run (Lazy.force serial) in
  let doc =
    Tce_prof.Report.suite_doc ~git_sha:run.Record.git_sha
      ~config_hash:run.Record.config_hash
      ~created_utc:run.Record.created_utc []
  in
  in_layout ignore (fun () ->
      Store.save ~latest:"BENCH_latest.json" run;
      Store.save_prof ~latest:"PROF_latest.json" doc;
      let files = List.sort compare (Array.to_list (Sys.readdir ".")) in
      Alcotest.(check (list string)) "only the two latest files"
        [ "BENCH_latest.json"; "PROF_latest.json" ] files)

(* The gate compares and reports; it writes no record, so a checkout that
   runs [check] keeps its committed [BENCH_latest.json]. *)
let test_gate_writes_no_record () =
  let run = make_run (Lazy.force serial) in
  in_layout ignore (fun () ->
      Store.save ~latest:"baseline.json" run;
      Alcotest.(check int) "clean gate exits 0" 0
        (Gate.run_gate ~baseline_path:"baseline.json" ~resolve ());
      Alcotest.(check (list string)) "only the baseline"
        [ "baseline.json" ]
        (Array.to_list (Sys.readdir ".")))

let short sha = String.sub sha 0 12

let test_git_sha_layouts () =
  let check what want got = Alcotest.(check string) what want got in
  check "loose ref, from a subdirectory" (short sha_a)
    (sha_in ~sub:"src/deep" (fun r ->
         write_file (r ^ "/.git/HEAD") "ref: refs/heads/main\n";
         write_file (r ^ "/.git/refs/heads/main") (sha_a ^ "\n")));
  check "ref only in packed-refs, after a peeled line" (short sha_a)
    (sha_in (fun r ->
         write_file (r ^ "/.git/HEAD") "ref: refs/heads/main\n";
         write_file (r ^ "/.git/packed-refs")
           (String.concat "\n"
              [
                "# pack-refs with: peeled fully-peeled sorted ";
                sha_b ^ " refs/tags/v1";
                "^" ^ sha_b;
                sha_a ^ " refs/heads/main";
                "";
              ])));
  check "detached HEAD" (short sha_b)
    (sha_in (fun r -> write_file (r ^ "/.git/HEAD") (sha_b ^ "\n")));
  check "gitdir: file plus commondir (a worktree)" (short sha_b)
    (sha_in ~sub:"wt" (fun r ->
         write_file (r ^ "/main/.git/HEAD") "ref: refs/heads/main\n";
         write_file (r ^ "/main/.git/refs/heads/main") (sha_a ^ "\n");
         write_file (r ^ "/main/.git/refs/heads/topic") (sha_b ^ "\n");
         write_file (r ^ "/main/.git/worktrees/wt/HEAD") "ref: refs/heads/topic\n";
         write_file (r ^ "/main/.git/worktrees/wt/commondir") "../..\n";
         write_file (r ^ "/wt/.git") "gitdir: ../main/.git/worktrees/wt\n"));
  check "unborn branch" "unknown"
    (sha_in (fun r -> write_file (r ^ "/.git/HEAD") "ref: refs/heads/main\n"));
  check "no repository" "unknown" (sha_in (fun _ -> ()))

(* Words [f ()] allocates, minor and major. *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* HEAD's branch on the last line of a packed-refs file [tags] lines long,
   with no newline after it *)
let packed_layout ~tags r =
  write_file (r ^ "/.git/HEAD") "ref: refs/heads/main\n";
  write_file (r ^ "/.git/packed-refs")
    (String.concat "\n"
       (("# pack-refs with: peeled fully-peeled sorted "
        :: List.init tags (fun i -> Printf.sprintf "%s refs/tags/v%05d" sha_b i))
       @ [ sha_a ^ " refs/heads/main" ]))

(* The packed-refs file is streamed, not read whole: a ref found past
   hundreds of read chunks costs the same allocation as one found in a
   three-line file, so stamping a run does not grow with the repository. *)
let test_git_sha_packed_refs_streamed () =
  let stamp ~tags =
    in_layout (packed_layout ~tags) (fun () ->
        let sha = Store.git_sha () in
        (sha, words_allocated Store.git_sha))
  in
  let small_sha, small = stamp ~tags:1 and big_sha, big = stamp ~tags:5000 in
  Alcotest.(check string) "found after one tag" (short sha_a) small_sha;
  Alcotest.(check string) "found after 5000 tags" (short sha_a) big_sha;
  if big > small +. 64.0 then
    Alcotest.failf "a 5000-tag packed-refs allocates %.0f words, a 1-tag one %.0f"
      big small

(* On this checkout, the same answer as git's, when git is available. *)
let test_git_sha_matches_git () =
  let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" ->
    Alcotest.(check string) "git rev-parse --short=12 HEAD" line (Store.git_sha ())
  | _ -> ()

let () =
  Alcotest.run "runner"
    [
      ( "parallel",
        [
          Alcotest.test_case "records sane" `Quick test_records_sane;
          Alcotest.test_case "in-process mode" `Quick test_in_process_mode;
          Alcotest.test_case "a rejected cache entry is a miss" `Quick
            test_rejected_entry_is_a_miss;
        ] );
      ( "store-free halves",
        [
          Alcotest.test_case "push is a store" `Quick test_push_is_a_store;
          Alcotest.test_case "a dead store counts" `Quick test_dead_store_counts;
          Alcotest.test_case "store-free row" `Quick test_store_free_row;
        ] );
      ( "gate",
        [
          Alcotest.test_case "clean pass" `Quick test_gate_clean_pass;
          Alcotest.test_case "fails on slowdown" `Quick
            test_gate_fails_on_slowdown;
          Alcotest.test_case "1% slowdown fails" `Quick
            test_gate_one_pct_slowdown_fails;
          Alcotest.test_case "every simulated field gates" `Quick
            test_gate_every_simulated_field;
          Alcotest.test_case "reports base and current" `Quick
            test_gate_reports_base_and_current;
          Alcotest.test_case "check-removal drop" `Quick
            test_gate_flags_check_removal_drop;
          Alcotest.test_case "checksum change" `Quick
            test_gate_flags_checksum_change;
          Alcotest.test_case "config mismatch" `Quick test_gate_config_mismatch;
          Alcotest.test_case "kind-mix shift fails" `Quick
            test_gate_kind_mix_shift_fails;
          Alcotest.test_case "missing workload" `Quick
            test_gate_missing_workload;
          Alcotest.test_case "exit codes" `Quick test_gate_exit_codes;
        ] );
      ( "store",
        [
          Alcotest.test_case "workload json round-trip" `Quick
            test_workload_json_round_trip;
          Alcotest.test_case "figures block json" `Quick test_figures_json;
          Alcotest.test_case "run json round-trip" `Quick
            test_run_json_round_trip_through_text;
          Alcotest.test_case "file round-trip" `Quick test_store_file_round_trip;
          Alcotest.test_case "rejects wrong kind" `Quick test_rejects_wrong_kind;
          Alcotest.test_case "loaders name an unreadable path" `Quick
            test_loaders_name_the_path;
          Alcotest.test_case "baseline costs follow the file" `Quick
            test_baseline_costs_follow_the_file;
          Alcotest.test_case "store writes one file per run" `Quick
            test_store_one_file_per_run;
          Alcotest.test_case "gate writes no record" `Quick
            test_gate_writes_no_record;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "git_sha layouts" `Quick test_git_sha_layouts;
          Alcotest.test_case "git_sha streams packed-refs" `Quick
            test_git_sha_packed_refs_streamed;
          Alcotest.test_case "git_sha matches git" `Quick
            test_git_sha_matches_git;
        ] );
    ]
