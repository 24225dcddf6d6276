(** Design-space sweep: a (geometry point × workload) cell matrix over the
    Class Cache / Class List configuration space, with Pareto-frontier
    reports (see sweep.mli for the spec grammar). *)

module J = Tce_obs.Json
module W = Tce_workloads.Workload
module E = Tce_engine.Engine
module CC = Tce_core.Class_cache
module CL = Tce_core.Class_list

let ( let* ) = Result.bind

(* --- the geometry space --- *)

type point = { entries : int; ways : int; cl_size : int }

let default_point =
  {
    entries = CC.default_config.CC.entries;
    ways = CC.default_config.CC.ways;
    cl_size = CL.default_config.CL.tracked_positions;
  }

(* Canonical: axis keys in sorted order, matching the spec grammar. *)
let point_name p =
  Printf.sprintf "cc.entries=%d cc.ways=%d cl.size=%d" p.entries p.ways
    p.cl_size

let config_of_point p : E.config =
  {
    E.default_config with
    E.cc_config = { CC.entries = p.entries; ways = p.ways };
    cl_config = { CL.tracked_positions = p.cl_size };
  }

(** Geometry cost proxy in bytes of SRAM: generalizes the hardware model's
    own estimate ({!Tce_core.Class_cache.storage_bytes} =
    [entries * (2 + 3 + 7)] — class tag, address tag, Class List payload
    per entry) by the swept Class List size, plus per-way replacement /
    valid overhead. Only ratios matter to the frontier. *)
let cost_bytes p = (p.entries * (2 + 3 + p.cl_size)) + (16 * p.ways)

(* --- the sweep-spec grammar --- *)

type axes = { ax_entries : int list; ax_ways : int list; ax_sizes : int list }

let axis_keys = [ "cc.entries"; "cc.ways"; "cl.size" ]

let parse_values ~key s : (int list, string) result =
  let parts = String.split_on_char ',' s in
  if List.exists (fun p -> String.trim p = "") parts then
    Error (Printf.sprintf "%s: empty value in %S" key s)
  else
    let rec go acc = function
      | [] -> Ok (List.sort_uniq compare (List.rev acc))
      | p :: rest -> (
        match int_of_string_opt (String.trim p) with
        | Some v when v >= 1 -> go (v :: acc) rest
        | Some v -> Error (Printf.sprintf "%s: %d is not positive" key v)
        | None -> Error (Printf.sprintf "%s: %S is not an integer" key p))
    in
    go [] parts

let parse_spec (s : string) : (axes, string) result =
  let clauses =
    List.filter (fun c -> c <> "") (String.split_on_char ' ' (String.trim s))
  in
  if clauses = [] then Error "empty sweep spec (no axes given)"
  else
    let rec go entries ways sizes = function
      | [] ->
        (* an absent axis sweeps only its paper-default value *)
        Ok
          {
            ax_entries =
              Option.value ~default:[ default_point.entries ] entries;
            ax_ways = Option.value ~default:[ default_point.ways ] ways;
            ax_sizes = Option.value ~default:[ default_point.cl_size ] sizes;
          }
      | clause :: rest -> (
        match String.index_opt clause '=' with
        | None ->
          Error
            (Printf.sprintf "bad sweep clause %S (expected KEY=V1,V2,...)"
               clause)
        | Some i -> (
          let key = String.sub clause 0 i
          and vs = String.sub clause (i + 1) (String.length clause - i - 1) in
          let dup () = Error (Printf.sprintf "duplicate sweep axis %S" key) in
          match key with
          | "cc.entries" -> (
            if entries <> None then dup ()
            else
              match parse_values ~key vs with
              | Error e -> Error e
              | Ok v -> go (Some v) ways sizes rest)
          | "cc.ways" -> (
            if ways <> None then dup ()
            else
              match parse_values ~key vs with
              | Error e -> Error e
              | Ok v -> go entries (Some v) sizes rest)
          | "cl.size" -> (
            if sizes <> None then dup ()
            else
              match parse_values ~key vs with
              | Error e -> Error e
              | Ok v ->
                if List.exists (fun n -> n > 7) v then
                  Error
                    (Printf.sprintf
                       "cl.size: at most 7 positions exist (got %d)"
                       (List.find (fun n -> n > 7) v))
                else go entries ways (Some v) rest)
          | _ ->
            Error
              (Printf.sprintf "unknown sweep axis %S (known: %s)" key
                 (String.concat ", " axis_keys))))
    in
    go None None None clauses

(* Canonical rendering: sorted keys, sorted deduped values — the identity
   the worker re-expands the matrix from. *)
let axes_to_string (a : axes) : string =
  let vs l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "cc.entries=%s cc.ways=%s cl.size=%s" (vs a.ax_entries)
    (vs a.ax_ways) (vs a.ax_sizes)

(** Expand to the point grid, entries-major / ways / cl.size-minor over
    the sorted axis values. Combinations the hardware model rejects
    (entries not a multiple of ways — no whole number of sets) are
    skipped and counted, not errors: a rectangular spec like
    [cc.entries=32,48 cc.ways=4] legitimately has holes. *)
let expand (a : axes) : point list * int =
  let skipped = ref 0 in
  let points =
    List.concat_map
      (fun entries ->
        List.concat_map
          (fun ways ->
            List.filter_map
              (fun cl_size ->
                if entries mod ways = 0 then Some { entries; ways; cl_size }
                else begin
                  incr skipped;
                  None
                end)
              a.ax_sizes)
          a.ax_ways)
      a.ax_entries
  in
  (points, !skipped)

(** The cell matrix in its canonical order: point-major, workload-minor
    (cell [i] is point [i / n_workloads], workload [i mod n_workloads]) —
    a pure function of [(axes, ws)], shared by the driver and its
    workers. *)
let matrix (points : point list) (ws : W.t list) : (point * W.t) list =
  List.concat_map (fun p -> List.map (fun w -> (p, w)) ws) points

(* --- the sweep record --- *)

type t = {
  spec : string;  (** canonical spec string ({!axes_to_string}) *)
  git_sha : string;
  created_utc : string;
  jobs : int;
  shards : int;
  host_wall_seconds : float;
  cache_hits : int;
  cache_misses : int;
  skipped_points : int;
  roster : string list;  (** workload names, matrix column order *)
  points : point list;  (** matrix row order *)
  cells : (point * Record.workload) list;
      (** matrix order; quarantined cells are absent *)
  quarantined : Supervise.quarantined list;
  resumed_rows : int list;
}

let equal (a : t) (b : t) =
  a.spec = b.spec && a.roster = b.roster && a.points = b.points
  && List.length a.cells = List.length b.cells
  && List.for_all2
       (fun (p1, r1) (p2, r2) -> p1 = p2 && Record.equal_workload r1 r2)
       a.cells b.cells

(** {!Record.normalize_run} for sweeps: every host-dependent field forced
    to a fixed value, so two sweeps of the same simulator state serialize
    byte-identically (the property CI asserts between a cold-cache and an
    all-hits run). *)
let normalize (t : t) : t =
  {
    t with
    created_utc = "normalized";
    jobs = 1;
    shards = 1;
    host_wall_seconds = 0.0;
    cache_hits = 0;
    cache_misses = 0;
    resumed_rows = [];
    cells = List.map (fun (p, r) -> (p, Record.zero_walls r)) t.cells;
  }

(* --- execution --- *)

let expand_or_fail axes =
  match expand axes with
  | [], _ -> failwith "sweep: empty grid (every combination invalid)"
  | points, skipped -> (points, skipped)

(* --- the cell matrix --- *)

let cells ~axes (ws : W.t list) : Record.cell Shard.cells =
  let points, _ = expand_or_fail axes in
  let m = Array.of_list (matrix points ws) in
  let c =
    Runner.pair_cells
      ~argv:("sweep" :: axes_to_string axes :: List.map (fun (w : W.t) -> w.W.name) ws)
      (List.map (fun (p, w) -> (config_of_point p, w)) (Array.to_list m))
  in
  {
    c with
    Shard.name =
      (fun i ->
        let p, w = m.(i) in
        Printf.sprintf "%s@%s" w.W.name (point_name p));
  }

let run ?exe ?spawn ?log_dir ?supervise
    ?(journal_path = Store.sweep_journal_path) ?resume ?cache ?jobs
    ?(shards = 1) ?(worker_args = []) ~axes (ws : W.t list) : t =
  Shard.serial_jobs jobs;
  let t0 = Unix.gettimeofday () in
  let points, skipped = expand_or_fail axes in
  let m = Array.of_list (matrix points ws) in
  let s =
    Shard.run ?exe ?spawn ?log_dir ?supervise ~journal_path ?resume
      ?cache ~shards ~worker_args (cells ~axes ws)
  in
  {
    spec = axes_to_string axes;
    git_sha = Store.git_sha ();
    created_utc = Store.timestamp_utc ();
    jobs = 1;
    shards;
    host_wall_seconds = Unix.gettimeofday () -. t0;
    cache_hits = fst s.Shard.cache_stats;
    cache_misses = snd s.Shard.cache_stats;
    skipped_points = skipped;
    roster = List.map (fun (w : W.t) -> w.W.name) ws;
    points;
    cells = List.map (fun (i, (row, _)) -> (fst m.(i), row)) s.Shard.rows;
    quarantined = s.Shard.quarantined;
    resumed_rows = s.Shard.resumed;
  }

(* --- persistence --- *)

let point_to_json p =
  J.Obj
    [
      ("entries", J.Int p.entries);
      ("ways", J.Int p.ways);
      ("cl_size", J.Int p.cl_size);
    ]

let point_of_json (j : J.t) : (point, string) result =
  let* entries = J.field "entries" J.to_int j in
  let* ways = J.field "ways" J.to_int j in
  let* cl_size = J.field "cl_size" J.to_int j in
  Ok { entries; ways; cl_size }

let to_json (t : t) : J.t =
  Tce_obs.Export.document ~kind:"sweep"
    (J.Obj
       ([
          ("spec", J.Str t.spec);
          ("git_sha", J.Str t.git_sha);
          ("created_utc", J.Str t.created_utc);
          ("jobs", J.Int t.jobs);
          ("shards", J.Int t.shards);
          ("host_wall_seconds", J.Float t.host_wall_seconds);
          ("cache_hits", J.Int t.cache_hits);
          ("cache_misses", J.Int t.cache_misses);
          ("skipped_points", J.Int t.skipped_points);
          ("roster", J.List (List.map (fun n -> J.Str n) t.roster));
          ("points", J.List (List.map point_to_json t.points));
          ( "cells",
            J.List
              (List.map
                 (fun (p, row) ->
                   J.Obj
                     [
                       ("point", point_to_json p);
                       ("row", Record.workload_to_json row);
                     ])
                 t.cells) );
        ]
       @ (match t.quarantined with
         | [] -> []
         | qs ->
           [
             ( "quarantined",
               J.List (List.map Supervise.quarantined_to_json qs) );
           ])
       @
       match t.resumed_rows with
       | [] -> []
       | rs -> [ ("resumed_rows", J.List (List.map (fun i -> J.Int i) rs)) ]))

let of_json (j : J.t) : (t, string) result =
  let* data = Tce_obs.Export.open_document ~kind:"sweep" j in
  let count name = J.optional name (J.int_at_least 0) ~default:0 data in
  let cell_of j =
    let* p = J.field "point" Option.some j in
    let* p = point_of_json p in
    let* r = J.field "row" Option.some j in
    let* r = Record.workload_of_json r in
    Ok (p, r)
  in
  let* spec = J.field "spec" J.to_str data in
  let* git_sha = J.field "git_sha" J.to_str data in
  let* created_utc = J.field "created_utc" J.to_str data in
  let* jobs = J.field "jobs" J.to_int data in
  let* shards = J.field "shards" (J.int_at_least 1) data in
  let* host_wall_seconds = J.field "host_wall_seconds" J.to_float data in
  let* cache_hits = count "cache_hits" in
  let* cache_misses = count "cache_misses" in
  let* skipped_points = count "skipped_points" in
  let* roster = J.optional "roster" (J.list_of J.to_str) ~default:[] data in
  let* points = J.field "points" J.to_list data in
  let* points = J.decode_all "points" point_of_json points in
  let* cells = J.field "cells" J.to_list data in
  let* cells = J.decode_all "cells" cell_of cells in
  let* quarantined = J.optional "quarantined" J.to_list ~default:[] data in
  let* quarantined =
    J.decode_all "quarantined" Supervise.quarantined_of_json quarantined
  in
  let* resumed_rows =
    J.optional "resumed_rows" (J.list_of J.to_int) ~default:[] data
  in
  Ok
    {
      spec; git_sha; created_utc; jobs; shards; host_wall_seconds;
      cache_hits; cache_misses; skipped_points; roster; points; cells;
      quarantined; resumed_rows;
    }

let save ?(latest = Store.sweep_latest_path) ?(dir = Store.sweeps_dir) (t : t)
    : string option =
  let doc = to_json t in
  Tce_obs.Export.to_file ~path:latest doc;
  if dir = "" then None
  else begin
    Store.mkdir_p dir;
    let name =
      Printf.sprintf "%s-%s.json"
        (String.map (function ':' -> '-' | c -> c) t.created_utc)
        t.git_sha
    in
    let path = Filename.concat dir name in
    Tce_obs.Export.to_file ~path doc;
    Some path
  end

let load path : (t, string) result = Store.read_json path of_json

(* --- Pareto analysis --- *)

type summary = {
  s_point : point;
  s_cost : int;
  s_cycles_off : float;
  s_cycles_on : float;
  s_speedup_pct : float;
  s_checks_off : int;
  s_checks_on : int;
  s_removal_pct : float;
}

let summarize p (rows : Record.workload list) : summary =
  let fsum g = List.fold_left (fun acc r -> acc +. g r) 0.0 rows in
  let isum g = List.fold_left (fun acc r -> acc + g r) 0 rows in
  let cycles_off = fsum (fun (r : Record.workload) -> r.Record.cycles_off) in
  let cycles_on = fsum (fun (r : Record.workload) -> r.Record.cycles_on) in
  let checks_off = isum (fun (r : Record.workload) -> r.Record.checks_off) in
  let checks_on = isum (fun (r : Record.workload) -> r.Record.checks_on) in
  {
    s_point = p;
    s_cost = cost_bytes p;
    s_cycles_off = cycles_off;
    s_cycles_on = cycles_on;
    s_speedup_pct =
      (if cycles_off > 0.0 then
         100.0 *. (cycles_off -. cycles_on) /. cycles_off
       else 0.0);
    s_checks_off = checks_off;
    s_checks_on = checks_on;
    s_removal_pct =
      (if checks_off > 0 then
         100.0 *. float_of_int (checks_off - checks_on) /. float_of_int checks_off
       else 0.0);
  }

let rows_of_point (t : t) p : Record.workload list =
  List.filter_map (fun (q, r) -> if q = p then Some r else None) t.cells

(** Roster-aggregate summaries, one per grid point that completed at
    least one cell, in matrix (point) order. *)
let aggregate (t : t) : summary list =
  List.filter_map
    (fun p ->
      match rows_of_point t p with [] -> None | rows -> Some (summarize p rows))
    t.points

(** Per-workload summaries: for each roster workload, one summary per
    point whose cell for it completed. *)
let per_workload (t : t) : (string * summary list) list =
  let names =
    match t.roster with
    | [] ->
      (* pre-roster documents: reconstruct column order from the cells *)
      List.fold_left
        (fun acc (_, (r : Record.workload)) ->
          if List.mem r.Record.name acc then acc else acc @ [ r.Record.name ])
        [] t.cells
    | names -> names
  in
  List.map
    (fun name ->
      ( name,
        List.filter_map
          (fun p ->
            match
              List.filter
                (fun (r : Record.workload) -> r.Record.name = name)
                (rows_of_point t p)
            with
            | [] -> None
            | rows -> Some (summarize p rows))
          t.points ))
    names

(** [a] dominates [b]: no worse on all three objectives (minimize
    mechanism-on cycles, maximize check removal, minimize geometry cost)
    and strictly better on at least one. *)
let dominates a b =
  a.s_cycles_on <= b.s_cycles_on
  && a.s_removal_pct >= b.s_removal_pct
  && a.s_cost <= b.s_cost
  && (a.s_cycles_on < b.s_cycles_on
     || a.s_removal_pct > b.s_removal_pct
     || a.s_cost < b.s_cost)

(** The non-dominated subset, in the input order. *)
let frontier (summaries : summary list) : summary list =
  List.filter
    (fun s -> not (List.exists (fun o -> dominates o s) summaries))
    summaries

(** The cheapest geometry whose roster check-removal rate is within
    [slack_pct] points of the default point's — the headline the sweep
    exists to produce. [None] when the default point is not in the grid
    or nothing cheaper qualifies. *)
let cheapest_within ?(slack_pct = 1.0) (summaries : summary list) :
    (summary * summary) option =
  match List.find_opt (fun s -> s.s_point = default_point) summaries with
  | None -> None
  | Some d -> (
    let candidates =
      List.filter
        (fun s ->
          s.s_point <> default_point
          && s.s_cost < d.s_cost
          && s.s_removal_pct >= d.s_removal_pct -. slack_pct)
        summaries
    in
    match
      List.sort
        (fun a b ->
          match compare a.s_cost b.s_cost with
          | 0 -> compare b.s_removal_pct a.s_removal_pct
          | c -> c)
        candidates
    with
    | [] -> None
    | best :: _ -> Some (d, best))

(** Check the default geometry's rows against the committed baseline:
    every baseline workload present in the sweep's default-point cells
    must match on all simulated fields ({!Record.equal_deterministic}).
    Returns a report line; [Error] when any row differs. *)
let baseline_check ?(baseline_path = Store.baseline_path) (t : t) :
    (string, string) result =
  match rows_of_point t default_point with
  | [] ->
    Ok
      (Printf.sprintf
         "default geometry (%s) not in the grid; baseline identity not \
          checked"
         (point_name default_point))
  | rows -> (
    match Store.baseline_rows ~path:baseline_path () with
    | Error e ->
      Ok (Printf.sprintf "baseline %s unreadable (%s)" baseline_path e)
    | Ok base ->
      let checked = ref 0 in
      let mismatches =
        List.filter_map
          (fun (r : Record.workload) ->
            match base r.Record.name with
            | None -> None
            | Some b ->
              incr checked;
              if Record.equal_deterministic b r then None
              else Some r.Record.name)
          rows
      in
      if mismatches = [] then
        Ok
          (Printf.sprintf
             "default geometry (%s): %d/%d rows bit-identical to %s"
             (point_name default_point) !checked !checked baseline_path)
      else
        Error
          (Printf.sprintf
             "default geometry (%s): %d of %d rows DIFFER from %s: %s"
             (point_name default_point)
             (List.length mismatches)
             !checked baseline_path
             (String.concat ", " mismatches)))

(* --- reports --- *)

(** One CSV row per (scope, point) summary: [scope] is ["all"] for the
    roster aggregate, else the workload name. [pareto] flags membership
    in that scope's frontier. *)
let to_csv (t : t) : string =
  let rows scope summaries =
    let front = frontier summaries in
    List.map
      (fun s ->
        scope
        :: List.map string_of_int
             [ s.s_point.entries; s.s_point.ways; s.s_point.cl_size; s.s_cost ]
        @ [ Printf.sprintf "%.0f" s.s_cycles_off; Printf.sprintf "%.0f" s.s_cycles_on;
            Printf.sprintf "%.4f" s.s_speedup_pct; string_of_int s.s_checks_off;
            string_of_int s.s_checks_on; Printf.sprintf "%.4f" s.s_removal_pct;
            (if List.memq s front then "1" else "0") ])
      summaries
  in
  Tce_support.Table.csv
    ~headers:
      [ "scope"; "entries"; "ways"; "cl_size"; "cost_bytes"; "cycles_off"; "cycles_on";
        "speedup_pct"; "checks_off"; "checks_on"; "removal_pct"; "pareto" ]
    (rows "all" (aggregate t)
    @ List.concat_map (fun (name, summaries) -> rows name summaries) (per_workload t))

let report ?baseline_path (t : t) : string =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let agg = aggregate t in
  let front = frontier agg in
  pr "Design-space sweep: %s\n" t.spec;
  pr "%d point(s)%s x %d workload(s) = %d cell(s)" (List.length t.points)
    (if t.skipped_points > 0 then
       Printf.sprintf " (+%d invalid combination(s) skipped)" t.skipped_points
     else "")
    (List.length t.roster)
    (List.length t.points * List.length t.roster);
  if t.cache_hits + t.cache_misses > 0 then
    pr "; cache: %d hit(s), %d miss(es)" t.cache_hits t.cache_misses;
  if t.quarantined <> [] then
    pr "; %d cell(s) quarantined" (List.length t.quarantined);
  pr "\n\n";
  pr
    "Roster aggregate (cycles summed over the roster; * = Pareto-optimal: \
     min cycles-on, max removal, min cost):\n";
  pr "  %-44s %9s %14s %9s %9s\n" "point" "cost B" "cycles on" "speedup%"
    "removal%";
  List.iter
    (fun s ->
      pr "%s %-44s %9d %14.0f %9.2f %9.2f\n"
        (if List.memq s front then "*" else " ")
        (point_name s.s_point) s.s_cost s.s_cycles_on s.s_speedup_pct
        s.s_removal_pct)
    (List.sort (fun a b -> compare a.s_cost b.s_cost) agg);
  pr "\nPareto frontier: %d of %d point(s)\n" (List.length front)
    (List.length agg);
  let pw = per_workload t in
  if List.length pw > 1 then begin
    pr "\nPer-workload frontiers:\n";
    List.iter
      (fun (name, summaries) ->
        pr "  %-28s %s\n" name
          (String.concat " | "
             (List.map (fun s -> point_name s.s_point) (frontier summaries))))
      pw
  end;
  pr "\n";
  (match baseline_check ?baseline_path t with
  | Ok line -> pr "%s\n" line
  | Error line -> pr "%s\n" line);
  (match cheapest_within agg with
  | None ->
    pr
      "no cheaper geometry within 1.0 points of the default's check \
       removal\n"
  | Some (d, best) ->
    pr
      "cheapest geometry within 1.0 points of the default's check removal: \
       %s (%d B vs %d B, removal %.2f%% vs %.2f%%, cycles-on %+.2f%%)\n"
      (point_name best.s_point) best.s_cost d.s_cost best.s_removal_pct
      d.s_removal_pct
      (if d.s_cycles_on > 0.0 then
         100.0 *. (best.s_cycles_on -. d.s_cycles_on) /. d.s_cycles_on
       else 0.0));
  Buffer.contents buf
