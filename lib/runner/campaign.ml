(** Fault-injection campaign driver (see campaign.mli). *)

module E = Tce_engine.Engine
module W = Tce_workloads.Workload
module Injector = Tce_fault.Injector
module Point = Tce_fault.Point
module Spec = Tce_fault.Spec
module J = Tce_obs.Json

let ( let* ) = Result.bind

let latest_path = "FAULTS_latest.json"
let campaigns_dir = Filename.concat "results" "campaigns"
let default_seed = 0xFA017

type outcome =
  | Wrong
  | Detected_recovered
  | Degraded
  | Masked
  | Not_exercised

let outcome_name = function
  | Wrong -> "wrong"
  | Detected_recovered -> "detected-recovered"
  | Degraded -> "degraded"
  | Masked -> "masked"
  | Not_exercised -> "not-exercised"

let outcome_of_name = function
  | "wrong" -> Some Wrong
  | "detected-recovered" -> Some Detected_recovered
  | "degraded" -> Some Degraded
  | "masked" -> Some Masked
  | "not-exercised" -> Some Not_exercised
  | _ -> None

type cell = {
  workload : string;
  point : string;  (** fault-point CLI name, {!Tce_fault.Point.name} *)
  spec : string;  (** the singleton spec the cell ran under *)
  seed : int;  (** injector seed (replay: [--fault-spec spec --fault-seed seed]) *)
  fires : int;
  detections : int;
  lost_victims : int;
  delivered_late : int;
  deopts_delta : int;  (** vs the clean mechanism-on run *)
  cycles_delta : float;  (** vs the clean mechanism-on run *)
  outcome : outcome;
  detail : string;  (** non-empty for [Wrong]: what went wrong *)
}

type t = {
  campaign_seed : int;
  spec : string;  (** the base spec the matrix was derived from *)
  git_sha : string;
  created_utc : string;
  jobs : int;
  shards : int;  (** worker processes the matrix was split across (1 = in-process) *)
  host_wall_seconds : float;
  cells : cell list;
  quarantined : Supervise.quarantined list;
      (** matrix cells the supervisor excluded after repeated worker
          kills; absent from [cells] *)
  resumed_rows : int list;  (** matrix indices replayed from a journal *)
}

(* --- the differential semantics oracle --- *)

(** Everything a guest program can observe, plus the timing/recovery
    counters the outcome classifier needs: a projection of
    {!Tce_metrics.Harness.run}, whose [observable] folds the printed output
    together with the display string of {e every} bench() iteration (not
    just the measured one), so a wrong answer in any warm-up iteration is
    caught too, and whose whole-run counters cover setup and every
    iteration. The reference it is compared with is
    {!Tce_metrics.Harness.reference}, the same string from the pure
    interpreter. *)
type observation = {
  observable : string;
  cycles : float;
  deopts : int;
  cc_exceptions : int;
}

let observe ~config (w : W.t) : observation =
  let r = Tce_metrics.Harness.run ~config w in
  {
    observable = r.observable;
    cycles = r.whole_cycles;
    deopts = r.whole_deopts;
    cc_exceptions = r.whole_cc_exceptions;
  }

(** The per-cell injector seed: a deterministic function of the campaign
    seed and the cell's identity only, so the schedule (shards, cell
    order) can never change which faults a cell sees. *)
let cell_seed ~campaign_seed ~workload ~point =
  let h = Hashtbl.hash (workload, point) in
  campaign_seed lxor (h * 0x9E3779B1) lxor ((h lsl 17) lor 0x2545F491)

(** What a workload's cells share, prepared once per process by {!prep}. *)
type prepared = {
  reference : string;
  clean : observation;
  opportunities : Point.t -> int;  (** per point, in the clean run *)
}

let run_cell ~campaign_seed (p : prepared) (w : W.t) (rule : Spec.rule) =
  let point = Point.name rule.Spec.point in
  let seed = cell_seed ~campaign_seed ~workload:w.W.name ~point in
  let spec = [ rule ] in
  let inj = Injector.create ~seed spec in
  let outcome, detail, deopts_delta, cycles_delta =
    let n = p.opportunities rule.Spec.point in
    if Injector.quiet ~seed rule ~opportunities:n then
      (* The faulted run would repeat the clean run without a fire
         ({!Injector.quiet}): its cell is known, and [inj] stays at zero. *)
      (Not_exercised, "", 0, 0.0)
    else
      let config = { E.default_config with E.mechanism = true; fault = inj } in
      match observe ~config w with
      | exception e ->
        (* An injected fault must degrade gracefully, never crash the
           engine: a crash counts as a campaign failure like a wrong
           answer. *)
        (Wrong, "crash: " ^ Printexc.to_string e, 0, 0.0)
      | o ->
        let dd = o.deopts - p.clean.deopts in
        let cd = o.cycles -. p.clean.cycles in
        if Injector.total_fires inj = 0 then (Not_exercised, "", dd, cd)
        else if o.observable <> p.reference then
          (Wrong, "observable result differs from the interpreter reference",
           dd, cd)
        else if Injector.detections inj > 0 then (Detected_recovered, "", dd, cd)
        else if
          dd <> 0 || o.cc_exceptions <> p.clean.cc_exceptions || cd <> 0.0
        then (Degraded, "", dd, cd)
        else (Masked, "", dd, cd)
  in
  {
    workload = w.W.name;
    point;
    spec = Spec.to_string spec;
    seed;
    fires = Injector.total_fires inj;
    detections = Injector.detections inj;
    lost_victims = List.length (Injector.lost inj);
    delivered_late = Injector.delivered_late inj;
    deopts_delta;
    cycles_delta;
    outcome;
    detail;
  }

(** The campaign matrix in its canonical order: workload-major, rule-minor
    (cell [i] is workload [i / n_rules], rule [i mod n_rules]). Shard
    assignment and row merging both index into this order, so it must stay
    a pure function of [(spec, ws)]. *)
let matrix ~(spec : Spec.t) (ws : W.t list) : (W.t * Spec.rule) list =
  List.concat_map (fun w -> List.map (fun rule -> (w, rule)) spec) ws

(** Per workload, before its first cell: the pure-interpreter reference
    ({!Tce_metrics.Harness.reference}, the differential oracle's ground
    truth: no optimizing-tier code runs in it) and a clean mechanism-on
    run (the yardstick for Degraded vs Masked) made with a counting
    injector, so that it also gives each point's opportunities (see
    campaign.mli). A mismatch with the reference, a fire or a detection
    here is an engine bug, not an injection outcome. *)
let prep (w : W.t) : prepared =
  let reference = Tce_metrics.Harness.reference w in
  let counter =
    Injector.create ~seed:0
      (List.map
         (fun point -> { Spec.point; trigger = Spec.At max_int; param = None })
         Point.all)
  in
  let clean =
    observe ~config:{ E.default_config with E.mechanism = true; fault = counter } w
  in
  let fail what =
    failwith (Printf.sprintf "%s: %s with no faults injected" w.W.name what)
  in
  if reference <> clean.observable then
    fail "mechanism-on output differs from the interpreter reference";
  if Injector.total_fires counter > 0 || Injector.detections counter > 0 then
    fail "a fault fired or the retire-path check tripped";
  { reference; clean; opportunities = Injector.opportunities counter }

(** The cell-cache key of cell [(w, rule)]: its singleton spec and
    injector seed on top of the bench identity. *)
let cell_key ~campaign_seed (w : W.t) (rule : Spec.rule) =
  let point = Point.name rule.Spec.point in
  Cache.fault_key ~spec:(Spec.to_string [ rule ])
    ~seed:(cell_seed ~campaign_seed ~workload:w.W.name ~point)
    w

let wrong t = List.filter (fun c -> c.outcome = Wrong) t.cells

(* --- persistence --- *)

let json_of_cell (c : cell) : J.t =
  J.Obj
    [
      ("workload", J.Str c.workload);
      ("point", J.Str c.point);
      ("spec", J.Str c.spec);
      ("seed", J.Int c.seed);
      ("fires", J.Int c.fires);
      ("detections", J.Int c.detections);
      ("lost_victims", J.Int c.lost_victims);
      ("delivered_late", J.Int c.delivered_late);
      ("deopts_delta", J.Int c.deopts_delta);
      ("cycles_delta", J.Float c.cycles_delta);
      ("outcome", J.Str (outcome_name c.outcome));
      ("detail", J.Str c.detail);
    ]

let cell_of_json (j : J.t) : (cell, string) result =
  let str k = J.field k J.to_str j and int k = J.field k J.to_int j in
  let* workload = str "workload" in
  let* point = str "point" in
  let* spec = str "spec" in
  let* seed = int "seed" in
  let* fires = int "fires" in
  let* detections = int "detections" in
  let* lost_victims = int "lost_victims" in
  let* delivered_late = int "delivered_late" in
  let* deopts_delta = int "deopts_delta" in
  let* cycles_delta = J.field "cycles_delta" J.to_float j in
  let* outcome =
    J.field "outcome" (fun v -> Option.bind (J.to_str v) outcome_of_name) j
  in
  let* detail = str "detail" in
  Ok
    {
      workload; point; spec; seed; fires; detections; lost_victims;
      delivered_late; deopts_delta; cycles_delta; outcome; detail;
    }

let to_json (t : t) : J.t =
  Tce_obs.Export.document ~kind:"fault-campaign"
    (J.Obj
       ([
          ("campaign_seed", J.Int t.campaign_seed);
          ("spec", J.Str t.spec);
          ("git_sha", J.Str t.git_sha);
          ("created_utc", J.Str t.created_utc);
          ("jobs", J.Int t.jobs);
          ("shards", J.Int t.shards);
          ("host_wall_seconds", J.Float t.host_wall_seconds);
          ("cells", J.List (List.map json_of_cell t.cells));
        ]
       (* both recovery fields are omitted when empty so documents from
          clean runs keep their pre-supervision bytes *)
       @ (match t.quarantined with
         | [] -> []
         | qs ->
           [ ("quarantined", J.List (List.map Supervise.quarantined_to_json qs)) ])
       @
       match t.resumed_rows with
       | [] -> []
       | rs -> [ ("resumed_rows", J.List (List.map (fun i -> J.Int i) rs)) ]))

let of_json (j : J.t) : (t, string) result =
  let* kind, data = Tce_obs.Export.open_document j in
  if kind <> "fault-campaign" then
    Error (Printf.sprintf "expected kind fault-campaign, got %s" kind)
  else
    let* campaign_seed = J.field "campaign_seed" J.to_int data in
    let* spec = J.field "spec" J.to_str data in
    let* git_sha = J.field "git_sha" J.to_str data in
    let* created_utc = J.field "created_utc" J.to_str data in
    let* jobs = J.field "jobs" J.to_int data in
    (* [shards] is optional: documents written before multi-process
       sharding existed are in-process (one shard). *)
    let* shards = J.optional "shards" (J.int_at_least 1) ~default:1 data in
    let* host_wall_seconds = J.field "host_wall_seconds" J.to_float data in
    let* cells = J.field "cells" J.to_list data in
    let* cells = J.decode_all "cells" cell_of_json cells in
    (* recovery provenance is optional: absent (clean or pre-supervision
       documents) decodes as empty *)
    let* quarantined = J.optional "quarantined" J.to_list ~default:[] data in
    let* quarantined =
      J.decode_all "quarantined" Supervise.quarantined_of_json quarantined
    in
    let* resumed_rows =
      J.optional "resumed_rows" (J.list_of J.to_int) ~default:[] data
    in
    Ok
      {
        campaign_seed; spec; git_sha; created_utc; jobs; shards;
        host_wall_seconds; cells; quarantined; resumed_rows;
      }

let save ?(latest = latest_path) ?(dir = campaigns_dir) (t : t) :
    string option =
  let doc = to_json t in
  Tce_obs.Export.to_file ~path:latest doc;
  if dir = "" then None
  else begin
    Store.mkdir_p dir;
    let name =
      Printf.sprintf "%s-%s-seed%d.json"
        (String.map (function ':' -> '-' | c -> c) t.created_utc)
        t.git_sha t.campaign_seed
    in
    let path = Filename.concat dir name in
    Tce_obs.Export.to_file ~path doc;
    Some path
  end

let diff_cells ~reference t =
  List.filter_map
    (fun c ->
      let same r = r.workload = c.workload && r.point = c.point in
      match List.find_opt same reference.cells with
      | Some r when r = c -> None
      | Some r ->
        Some
          (Printf.sprintf "%s/%s: %s, reference %s" c.workload c.point
             (J.to_string (json_of_cell c))
             (J.to_string (json_of_cell r)))
      | None ->
        Some (Printf.sprintf "%s/%s: not in the reference" c.workload c.point))
    t.cells

let load path : (t, string) result = Store.read_json path of_json

(* --- execution --- *)

let codec =
  {
    Shard.encode = json_of_cell;
    decode = cell_of_json;
    cache_form = Fun.id;
  }

let cells ~spec ~seed (ws : W.t list) : cell Shard.cells =
  let m = Array.of_list (matrix ~spec ws) in
  let cost = lazy (Store.baseline_cost_of_workload ()) in
  (* Reference observable, clean observation and opportunity counts, once
     per workload this process runs.
     A sharded run gives each workload's cells to one worker process, so
     a run preps each workload once, sharded or not. *)
  let prepped = Hashtbl.create 8 in
  let prep_once (w : W.t) =
    match Hashtbl.find_opt prepped w.W.name with
    | Some p -> p
    | None ->
      let p = prep w in
      Hashtbl.add prepped w.W.name p;
      p
  in
  {
    Shard.codec;
    argv = "faults" :: List.map (fun (w : W.t) -> w.W.name) ws;
    count = Array.length m;
    name =
      (fun i ->
        let w, rule = m.(i) in
        Printf.sprintf "%s×%s" w.W.name (Point.name rule.Spec.point));
    workload = (fun i -> (fst m.(i)).W.name);
    (* a cell costs about one run of its workload *)
    cost = (fun i -> Lazy.force cost (fst m.(i)));
    key = (fun i -> cell_key ~campaign_seed:seed (fst m.(i)) (snd m.(i)));
    run =
      (fun i ->
        let w, rule = m.(i) in
        run_cell ~campaign_seed:seed (prep_once w) w rule);
  }

let run ?exe ?spawn ?log_dir ?supervise
    ?(journal_path = Store.faults_journal_path) ?resume ?chaos ?cache
    ?(spec = Spec.default) ?(seed = default_seed) ?jobs ?(shards = 1)
    ?(worker_args = []) (ws : W.t list) : t =
  Shard.serial_jobs jobs;
  let t0 = Unix.gettimeofday () in
  let s =
    Shard.run ?exe ?spawn ?log_dir ?supervise ~journal_path ?resume ?chaos
      ?cache ~shards ~worker_args (cells ~spec ~seed ws)
  in
  {
    campaign_seed = seed;
    spec = Spec.to_string spec;
    git_sha = Store.git_sha ();
    created_utc = Store.timestamp_utc ();
    jobs = 1;
    shards;
    host_wall_seconds = Unix.gettimeofday () -. t0;
    cells = List.map snd s.Shard.rows;
    quarantined = s.Shard.quarantined;
    resumed_rows = s.Shard.resumed;
  }

let parent = run

(* --- reporting --- *)

let print_summary (t : t) =
  let points =
    List.sort_uniq compare (List.map (fun (c : cell) -> c.point) t.cells)
  in
  Printf.printf
    "fault campaign: seed %d, %d cells (%d workloads × %d points), %d \
     shard(s), %.1fs\n"
    t.campaign_seed (List.length t.cells)
    (List.length
       (List.sort_uniq compare (List.map (fun (c : cell) -> c.workload) t.cells)))
    (List.length points) t.shards t.host_wall_seconds;
  Printf.printf "%-14s %6s %6s | %6s %10s %9s %7s %7s\n" "point" "fires"
    "detect" "wrong" "recovered" "degraded" "masked" "quiet";
  List.iter
    (fun p ->
      let cs = List.filter (fun (c : cell) -> c.point = p) t.cells in
      let count o =
        List.length (List.filter (fun (c : cell) -> c.outcome = o) cs)
      in
      let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
      Printf.printf "%-14s %6d %6d | %6d %10d %9d %7d %7d\n" p
        (sum (fun c -> c.fires))
        (sum (fun c -> c.detections))
        (count Wrong) (count Detected_recovered) (count Degraded)
        (count Masked) (count Not_exercised))
    points;
  (match t.resumed_rows with
  | [] -> ()
  | rs -> Printf.printf "resumed %d cell(s) from the journal\n" (List.length rs));
  (match t.quarantined with
  | [] -> ()
  | qs ->
    Printf.printf
      "QUARANTINED %d cell(s) (excluded after repeated worker kills):\n"
      (List.length qs);
    List.iter
      (fun (q : Supervise.quarantined) ->
        Printf.printf "  %s (index %d, %d kills): %s\n" q.Supervise.q_name
          q.Supervise.q_index q.Supervise.q_kills q.Supervise.q_reason)
      qs);
  (match wrong t with
  | [] ->
    Printf.printf
      "campaign: PASS — no silent wrong answers, no crashes under injection\n"
  | ws ->
    Printf.printf "campaign: FAIL — %d wrong-answer cell(s):\n" (List.length ws);
    List.iter
      (fun (c : cell) ->
        Printf.printf "  %s × %s (seed %d): %s\n" c.workload c.point c.seed
          c.detail)
      ws)

let exit_code ?(strict = false) t =
  if wrong t <> [] then 1 else if strict && t.quarantined <> [] then 1 else 0
