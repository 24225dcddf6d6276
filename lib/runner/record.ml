(** Versioned benchmark records (see record.mli and README.md for the
    schema). One [workload] per benchmark per run, one [run] per
    invocation of the suite runner. *)

module J = Tce_obs.Json
module H = Tce_metrics.Harness
module W = Tce_workloads.Workload

type workload = {
  name : string;
  suite : string;
  iterations : int;
  checksum : string;
  cycles_off : float;
  cycles_on : float;
  whole_cycles_off : float;
  whole_cycles_on : float;
  checks_off : int;
  checks_on : int;
  checks_by_kind : (string * int * int) list;
  guards_off : int;
  guards_on : int;
  deopts_on : int;
  cc_exceptions_on : int;
  cc_accesses_on : int;
  cc_hit_rate_on : float;
  speedup_pct : float;
  check_removal_pct : float;
  wall_seconds : float;
  wall_seconds_off : float;
  wall_seconds_on : float;
}

type figures = H.Figures.t
type cell = workload * figures option

type run = {
  git_sha : string;
  config_hash : string;
  created_utc : string;
  jobs : int;
  shards : int;
  host_wall_seconds : float;
  workloads : workload list;
  quarantined : Supervise.quarantined list;
  resumed_rows : int list;
  cache_hits : int;
      (** rows served from the content-addressed cell cache (provenance:
          depends on local cache state, normalized away; omitted from the
          JSON with [cache_misses] when both are zero) *)
  cache_misses : int;  (** rows that had to be simulated on a cached run *)
  figures : (string * figures) list;
}

(* The reconciliation invariant (ISSUE 4): every dynamic [C_check]
   execution is attributed to exactly one check kind. Slot 0 is the
   unattributed bucket — a compiler site that emitted a check without a
   kind flag — and must stay empty; the kind sum must equal the [C_check]
   category counter exactly. A violation is a compiler bug, not a
   measurement artifact, so it fails the run loudly. *)
let reconcile ~name ~label (a : int array) ~total =
  if a.(0) <> 0 then
    failwith
      (Printf.sprintf "%s (%s): %d unattributed check executions" name label
         a.(0));
  let sum = Array.fold_left ( + ) 0 a in
  if sum <> total then
    failwith
      (Printf.sprintf
         "%s (%s): check kinds sum to %d but the C_check counter saw %d" name
         label sum total)

let of_pair ~wall_off ~wall_on (off : H.result) (on : H.result) : workload =
  let w = off.H.workload in
  let checks_off = off.H.by_cat.(Tce_jit.Categories.index Tce_jit.Categories.C_check) in
  let checks_on = on.H.by_cat.(Tce_jit.Categories.index Tce_jit.Categories.C_check) in
  reconcile ~name:w.W.name ~label:"mechanism-off" off.H.by_check_kind
    ~total:checks_off;
  reconcile ~name:w.W.name ~label:"mechanism-on" on.H.by_check_kind
    ~total:checks_on;
  let checks_by_kind =
    List.map
      (fun k ->
        let i = Tce_jit.Categories.check_kind_index k + 1 in
        ( Tce_jit.Categories.check_kind_name k,
          off.H.by_check_kind.(i),
          on.H.by_check_kind.(i) ))
      Tce_jit.Categories.all_check_kinds
  in
  {
    name = w.W.name;
    suite = W.suite_name w.W.suite;
    iterations = w.W.iterations;
    checksum = on.H.checksum;
    cycles_off = off.H.total_cycles;
    cycles_on = on.H.total_cycles;
    whole_cycles_off = off.H.whole_cycles;
    whole_cycles_on = on.H.whole_cycles;
    checks_off;
    checks_on;
    checks_by_kind;
    guards_off = off.H.guards_obj_load;
    guards_on = on.H.guards_obj_load;
    deopts_on = on.H.deopts;
    cc_exceptions_on = on.H.cc_exceptions;
    cc_accesses_on = on.H.cc_accesses;
    cc_hit_rate_on = on.H.cc_hit_rate;
    speedup_pct =
      Tce_support.Stats.improvement ~base:off.H.total_cycles
        ~opt:on.H.total_cycles;
    check_removal_pct = Tce_support.Stats.percent (checks_off - checks_on) checks_off;
    wall_seconds = wall_off +. wall_on;
    wall_seconds_off = wall_off;
    wall_seconds_on = wall_on;
  }

(** Zero the host wall clocks of a row: what remains is a pure function
    of the simulator state. This is the form rows take in the cell cache,
    so a cached row and a normalized fresh row are byte-identical. *)
let zero_walls (w : workload) : workload =
  { w with wall_seconds = 0.0; wall_seconds_off = 0.0; wall_seconds_on = 0.0 }

(** Everything the simulator computes — i.e. every field except the host
    wall clock — must match for two records to count as the same result. *)
let equal_deterministic (a : workload) (b : workload) = zero_walls a = zero_walls b

(* --- JSON --- *)

let workload_to_json (w : workload) : J.t =
  J.Obj
    [
      ("name", J.Str w.name);
      ("suite", J.Str w.suite);
      ("iterations", J.Int w.iterations);
      ("checksum", J.Str w.checksum);
      ("cycles_off", J.Float w.cycles_off);
      ("cycles_on", J.Float w.cycles_on);
      ("whole_cycles_off", J.Float w.whole_cycles_off);
      ("whole_cycles_on", J.Float w.whole_cycles_on);
      ("checks_off", J.Int w.checks_off);
      ("checks_on", J.Int w.checks_on);
      ( "checks_by_kind",
        J.List
          (List.map
             (fun (kind, off, on) ->
               J.Obj
                 [ ("kind", J.Str kind); ("off", J.Int off); ("on", J.Int on) ])
             w.checks_by_kind) );
      ("guards_off", J.Int w.guards_off);
      ("guards_on", J.Int w.guards_on);
      ("deopts_on", J.Int w.deopts_on);
      ("cc_exceptions_on", J.Int w.cc_exceptions_on);
      ("cc_accesses_on", J.Int w.cc_accesses_on);
      ("cc_hit_rate_on", J.Float w.cc_hit_rate_on);
      ("speedup_pct", J.Float w.speedup_pct);
      ("check_removal_pct", J.Float w.check_removal_pct);
      ("wall_seconds", J.Float w.wall_seconds);
      ("wall_seconds_off", J.Float w.wall_seconds_off);
      ("wall_seconds_on", J.Float w.wall_seconds_on);
    ]

let diff (base : workload) (cur : workload) =
  List.map
    (fun (path, b, c) ->
      Printf.sprintf "%s: base %s, current %s" path (J.to_string b)
        (J.to_string c))
    (J.diff (workload_to_json (zero_walls base)) (workload_to_json (zero_walls cur)))

let figures_of_cells (cells : cell list) : (string * figures) list =
  List.filter_map (fun (w, f) -> Option.map (fun f -> (w.name, f)) f) cells

let cell_to_json ((w, figures) : cell) : J.t =
  match (workload_to_json w, figures) with
  | J.Obj fields, Some f -> J.Obj (fields @ [ ("figures", H.Figures.to_json f) ])
  | j, _ -> j

let run_to_json (r : run) : J.t =
  Tce_obs.Export.document ~kind:"bench-run"
    (J.Obj
       ([
          ("git_sha", J.Str r.git_sha);
          ("config_hash", J.Str r.config_hash);
          ("created_utc", J.Str r.created_utc);
          ("jobs", J.Int r.jobs);
          ("shards", J.Int r.shards);
          ("host_wall_seconds", J.Float r.host_wall_seconds);
          ( "workloads",
            J.List
              (List.map
                 (fun w ->
                   cell_to_json (w, List.assoc_opt w.name r.figures))
                 r.workloads) );
        ]
       (* emitted only when present, so documents from clean runs — the
          committed baseline included — keep their pre-supervision bytes *)
       @ (if r.quarantined = [] then []
          else
            [
              ( "quarantined",
                J.List
                  (List.map Supervise.quarantined_to_json r.quarantined) );
            ])
       @ (if r.resumed_rows = [] then []
          else
            [
              ( "resumed_rows",
                J.List (List.map (fun i -> J.Int i) r.resumed_rows) );
            ])
       @
       if r.cache_hits = 0 && r.cache_misses = 0 then []
       else
         [
           ("cache_hits", J.Int r.cache_hits);
           ("cache_misses", J.Int r.cache_misses);
         ]))

(* Decoding: every field is required ({!J.field}) unless an older
   document may lack it ({!J.optional}). *)

let ( let* ) = Result.bind

let workload_of_json (j : J.t) : (workload, string) result =
  let* name = J.field "name" J.to_str j in
  let* suite = J.field "suite" J.to_str j in
  let* iterations = J.field "iterations" J.to_int j in
  let* checksum = J.field "checksum" J.to_str j in
  let* cycles_off = J.field "cycles_off" J.to_float j in
  let* cycles_on = J.field "cycles_on" J.to_float j in
  let* whole_cycles_off = J.field "whole_cycles_off" J.to_float j in
  let* whole_cycles_on = J.field "whole_cycles_on" J.to_float j in
  let* checks_off = J.field "checks_off" J.to_int j in
  let* checks_on = J.field "checks_on" J.to_int j in
  (* Optional for schema-v1 documents, which predate the composition block. *)
  let* checks_by_kind = J.optional "checks_by_kind" J.to_list ~default:[] j in
  let* checks_by_kind =
    J.decode_all "checks_by_kind"
      (fun e ->
        let* kind = J.field "kind" J.to_str e in
        let* off = J.field "off" J.to_int e in
        let* on = J.field "on" J.to_int e in
        Ok (kind, off, on))
      checks_by_kind
  in
  let* guards_off = J.field "guards_off" J.to_int j in
  let* guards_on = J.field "guards_on" J.to_int j in
  let* deopts_on = J.field "deopts_on" J.to_int j in
  let* cc_exceptions_on = J.field "cc_exceptions_on" J.to_int j in
  let* cc_accesses_on = J.field "cc_accesses_on" J.to_int j in
  let* cc_hit_rate_on = J.field "cc_hit_rate_on" J.to_float j in
  let* speedup_pct = J.field "speedup_pct" J.to_float j in
  let* check_removal_pct = J.field "check_removal_pct" J.to_float j in
  let* wall_seconds = J.field "wall_seconds" J.to_float j in
  (* Optional for schema-v1/v2 documents, which only carried the pair
     total; per-side walls are provenance-only so 0.0 is a safe default. *)
  let wall name = J.optional name J.to_float ~default:0.0 j in
  let* wall_seconds_off = wall "wall_seconds_off" in
  let* wall_seconds_on = wall "wall_seconds_on" in
  Ok
    {
      name;
      suite;
      iterations;
      checksum;
      cycles_off;
      cycles_on;
      whole_cycles_off;
      whole_cycles_on;
      checks_off;
      checks_on;
      checks_by_kind;
      guards_off;
      guards_on;
      deopts_on;
      cc_exceptions_on;
      cc_accesses_on;
      cc_hit_rate_on;
      speedup_pct;
      check_removal_pct;
      wall_seconds;
      wall_seconds_off;
      wall_seconds_on;
    }

(* The figures block is optional: rows written before it existed, the
   committed baseline among them, decode to [None]. *)
let cell_of_json (j : J.t) : (cell, string) result =
  let* w = workload_of_json j in
  match J.member "figures" j with
  | None -> Ok (w, None)
  | Some fj -> (
    match H.Figures.of_json fj with
    | Ok f -> Ok (w, Some f)
    | Error e -> Error (Printf.sprintf "%s: figures: %s" w.name e))

let run_of_json (j : J.t) : (run, string) result =
  let* data = Tce_obs.Export.open_document ~kind:"bench-run" j in
  let* git_sha = J.field "git_sha" J.to_str data in
  let* config_hash = J.field "config_hash" J.to_str data in
  let* created_utc = J.field "created_utc" J.to_str data in
  let* jobs = J.field "jobs" J.to_int data in
  (* Optional for documents written before multi-process sharding
     existed: an in-process run is one shard. *)
  let* shards = J.optional "shards" (J.int_at_least 1) ~default:1 data in
  let* host_wall_seconds = J.field "host_wall_seconds" J.to_float data in
  let* items = J.field "workloads" J.to_list data in
  let* cells = J.decode_all "workloads" cell_of_json items in
  (* Optional blocks: documents from clean (or pre-supervision) runs
     simply have no quarantined cells and no resumed rows. *)
  let* quarantined = J.optional "quarantined" J.to_list ~default:[] data in
  let* quarantined =
    J.decode_all "quarantined" Supervise.quarantined_of_json quarantined
  in
  let* resumed_rows =
    J.optional "resumed_rows" (J.list_of J.to_int) ~default:[] data
  in
  let count name = J.optional name (J.int_at_least 0) ~default:0 data in
  let* cache_hits = count "cache_hits" in
  let* cache_misses = count "cache_misses" in
  Ok
    {
      git_sha;
      config_hash;
      created_utc;
      jobs;
      shards;
      host_wall_seconds;
      workloads = List.map fst cells;
      quarantined;
      resumed_rows;
      cache_hits;
      cache_misses;
      figures = figures_of_cells cells;
    }

(** Force every host-dependent field to a fixed value; what remains is a
    pure function of the simulator state, so a serial and a sharded run of
    the same checkout serialize byte-identically. *)
let normalize_run (r : run) : run =
  {
    r with
    created_utc = "normalized";
    jobs = 1;
    shards = 1;
    host_wall_seconds = 0.0;
    (* whether rows came live or replayed from a journal does not change
       them (cells are deterministic), so resume provenance is normalized
       away; quarantined cells DO change the result set and are kept.
       Cache provenance is likewise local state, not a result. *)
    resumed_rows = [];
    cache_hits = 0;
    cache_misses = 0;
    workloads = List.map zero_walls r.workloads;
  }
