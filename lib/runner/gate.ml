(** Perf-regression gate (see gate.mli). *)

module S = Tce_support.Stats

type metric = Cycles | Check_removal | Checksum

let metric_name = function
  | Cycles -> "cycles"
  | Check_removal -> "check-removal"
  | Checksum -> "checksum"

type verdict = {
  workload : string;
  metric : metric;
  base : float;
  cur : float;
  delta : float;
  ok : bool;
}

type report = {
  verdicts : verdict list;
  missing : string list;
  quarantined : string list;
  config_mismatch : bool;
  warnings : string list;
  ok : bool;
}

let default_tolerance_pct = 2.0

(** Warn-only composition drift: for each check kind, compare its share of
    the surviving (mechanism-on) checks between baseline and current. A
    shift beyond [tolerance_pct] points means the *mix* of kept checks
    changed even if the headline totals pass — worth a look, not a
    failure (the totals are gated separately). Schema-v1 baselines have no
    composition block; they produce no warnings. *)
let composition_warnings ~tolerance_pct (b : Record.workload)
    (c : Record.workload) =
  if b.Record.checks_by_kind = [] || c.Record.checks_by_kind = [] then []
  else begin
    let share rows total kind =
      match List.find_opt (fun (k, _, _) -> k = kind) rows with
      | Some (_, _, on) when total > 0 ->
        100.0 *. float_of_int on /. float_of_int total
      | _ -> 0.0
    in
    List.filter_map
      (fun (kind, _, _) ->
        let bs = share b.Record.checks_by_kind b.Record.checks_on kind in
        let cs = share c.Record.checks_by_kind c.Record.checks_on kind in
        if Float.abs (cs -. bs) > tolerance_pct then
          Some
            (Printf.sprintf
               "%s: %s share of kept checks shifted %.2f%% -> %.2f%%"
               b.Record.name kind bs cs)
        else None)
      b.Record.checks_by_kind
  end

(** Compare [current] against [baseline] workload-by-workload (matched by
    name, over the baseline's roster). A workload fails when
    - its measured checksum changed (correctness regression),
    - steady-state [cycles_on] grew by more than [tolerance_pct] percent, or
    - [check_removal_pct] dropped by more than [tolerance_pct] points.
    Improvements never fail the gate. *)
let check_run ?(tolerance_pct = default_tolerance_pct) ~baseline ~current () :
    report =
  let find name =
    List.find_opt
      (fun (w : Record.workload) -> w.Record.name = name)
      current.Record.workloads
  in
  (* A baseline workload absent because the supervisor quarantined it is
     not a perf regression — the gate compares only the completed rows and
     warns. A workload absent for any other reason still fails. *)
  let quarantined_names =
    List.map
      (fun q -> q.Supervise.q_name)
      current.Record.quarantined
  in
  let verdicts, missing, quarantined, warnings =
    List.fold_left
      (fun (vs, miss, quar, warns) (b : Record.workload) ->
        match find b.Record.name with
        | None when List.mem b.Record.name quarantined_names ->
          ( vs, miss, b.Record.name :: quar,
            Printf.sprintf
              "%s: quarantined by the supervisor — excluded from the \
               comparison (completed rows only, non-gating)"
              b.Record.name
            :: warns )
        | None -> (vs, b.Record.name :: miss, quar, warns)
        | Some c ->
          let cycles_delta =
            S.rel_delta_pct ~base:b.Record.cycles_on ~cur:c.Record.cycles_on
          in
          let removal_drop =
            b.Record.check_removal_pct -. c.Record.check_removal_pct
          in
          let vs =
            {
              workload = b.Record.name;
              metric = Checksum;
              base = 0.0;
              cur = 0.0;
              delta = 0.0;
              ok = b.Record.checksum = c.Record.checksum;
            }
            :: {
                 workload = b.Record.name;
                 metric = Cycles;
                 base = b.Record.cycles_on;
                 cur = c.Record.cycles_on;
                 delta = cycles_delta;
                 ok = cycles_delta <= tolerance_pct;
               }
            :: {
                 workload = b.Record.name;
                 metric = Check_removal;
                 base = b.Record.check_removal_pct;
                 cur = c.Record.check_removal_pct;
                 delta = -.removal_drop;
                 ok = removal_drop <= tolerance_pct;
               }
            :: vs
          in
          (vs, miss, quar,
           List.rev_append (composition_warnings ~tolerance_pct b c) warns))
      ([], [], [], []) baseline.Record.workloads
  in
  let verdicts = List.rev verdicts
  and missing = List.rev missing
  and quarantined = List.rev quarantined
  and warnings = List.rev warnings in
  let config_mismatch =
    baseline.Record.config_hash <> current.Record.config_hash
  in
  {
    verdicts;
    missing;
    quarantined;
    config_mismatch;
    warnings;
    ok =
      (not config_mismatch) && missing = []
      && List.for_all (fun (v : verdict) -> v.ok) verdicts;
  }

(* --- reporting --- *)

let print_report ~baseline ~current (r : report) =
  if r.config_mismatch then
    Printf.printf
      "CONFIG MISMATCH: baseline %s vs current %s — numbers are not \
       comparable; refresh the baseline (see EXPERIMENTS.md)\n"
      baseline.Record.config_hash current.Record.config_hash;
  Printf.printf "%-22s %14s %14s %8s | %8s %8s %7s | %s\n" "workload"
    "base cycles" "cur cycles" "Δcyc%" "base rm%" "cur rm%" "Δrm pts" "status";
  let by_workload = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let l = try Hashtbl.find by_workload v.workload with Not_found -> [] in
      Hashtbl.replace by_workload v.workload (v :: l))
    r.verdicts;
  List.iter
    (fun (b : Record.workload) ->
      match Hashtbl.find_opt by_workload b.Record.name with
      | None ->
        if List.mem b.Record.name r.quarantined then
          Printf.printf "%-22s QUARANTINED (non-gating, excluded)\n"
            b.Record.name
        else Printf.printf "%-22s MISSING from current run\n" b.Record.name
      | Some vs ->
        let get m = List.find_opt (fun v -> v.metric = m) vs in
        let cyc = get Cycles and rm = get Check_removal and ck = get Checksum in
        let bad =
          List.filter_map
            (fun (v : verdict) ->
              if v.ok then None else Some (metric_name v.metric))
            vs
        in
        let status =
          if bad = [] then "ok" else "FAIL " ^ String.concat "+" bad
        in
        let f g v = Option.fold ~none:0.0 ~some:g v in
        Printf.printf "%-22s %14.0f %14.0f %+7.2f%% | %7.2f%% %7.2f%% %+7.2f | %s%s\n"
          b.Record.name
          (f (fun v -> v.base) cyc)
          (f (fun v -> v.cur) cyc)
          (f (fun v -> v.delta) cyc)
          (f (fun v -> v.base) rm)
          (f (fun v -> v.cur) rm)
          (f (fun v -> v.delta) rm)
          status
          (match ck with Some { ok = false; _ } -> " (checksum changed!)" | _ -> ""))
    baseline.Record.workloads;
  let deltas =
    List.filter_map
      (fun v -> if v.metric = Cycles then Some v.delta else None)
      r.verdicts
  in
  List.iter (fun w -> Printf.printf "warning: %s\n" w) r.warnings;
  let mean, ci = S.mean_ci95 deltas in
  Printf.printf
    "gate: %s — %d workloads compared, mean cycle delta %+.2f%% (±%.2f)%s%s\n"
    (if r.ok then "PASS" else "FAIL")
    (List.length deltas) mean ci
    (match r.missing with
    | [] -> ""
    | ms -> Printf.sprintf ", missing: %s" (String.concat ", " ms))
    (match r.quarantined with
    | [] -> ""
    | qs -> Printf.sprintf ", quarantined: %s" (String.concat ", " qs))

(* --- end-to-end driver (bench/main.exe -- check) --- *)

let run_gate ?(baseline_path = Store.baseline_path)
    ?(tolerance_pct = default_tolerance_pct) ?cache ?(names = [])
    ?(resolve = Tce_workloads.Workloads.by_name) ?(save_latest = true) ?shards
    ?supervise () : int =
  match Store.load baseline_path with
  | Error msg ->
    (* Actionable failure: say *why* the baseline is unusable and how to
       produce a good one, instead of a bare parse error. *)
    if not (Sys.file_exists baseline_path) then
      Printf.eprintf
        "gate: baseline %s does not exist.\n\
         Generate one from a known-good checkout and commit it:\n\
        \  dune exec bench/main.exe -- bench --out %s\n"
        baseline_path baseline_path
    else
      Printf.eprintf
        "gate: baseline %s is unreadable or malformed: %s\n\
         Regenerate it from a known-good checkout:\n\
        \  dune exec bench/main.exe -- bench --out %s\n"
        baseline_path msg baseline_path;
    2
  | Ok baseline ->
    (* Run exactly the baseline's roster (optionally narrowed to [names])
       so a subset invocation compares subset-to-subset. *)
    let wanted (b : Record.workload) =
      names = [] || List.mem b.Record.name names
    in
    let unresolved =
      List.filter
        (fun (b : Record.workload) ->
          wanted b && resolve b.Record.name = None)
        baseline.Record.workloads
    in
    if unresolved <> [] then begin
      (* A baseline naming unknown workloads is from a different roster
         (renamed/removed benchmarks): comparing the remainder would
         silently shrink the gate's coverage, so fail loudly instead. *)
      Printf.eprintf
        "gate: baseline %s names %d workload(s) not in this build's \
         registry: %s.\n\
         The baseline was made from a different benchmark roster — \
         regenerate it:\n\
        \  dune exec bench/main.exe -- bench --out %s\n"
        baseline_path
        (List.length unresolved)
        (String.concat ", "
           (List.map (fun (b : Record.workload) -> b.Record.name) unresolved))
        baseline_path;
      2
    end
    else
    let roster =
      List.filter_map
        (fun (b : Record.workload) ->
          if wanted b then resolve b.Record.name else None)
        baseline.Record.workloads
    in
    if roster = [] then begin
      Printf.eprintf
        "gate: no baseline workloads selected to compare (baseline %s has \
         %d workloads%s)\n"
        baseline_path
        (List.length baseline.Record.workloads)
        (if names = [] then ""
         else "; none match " ^ String.concat ", " names);
      2
    end
    else begin
      let current = Runner.run_suite ?supervise ?cache ?shards roster in
      (match cache with
      | None -> ()
      | Some c ->
        Cache.print_stats (Cache.stats c);
        ignore (Cache.prune ~dir:(Cache.dir c) ()));
      if save_latest then Store.save current;
      let kept =
        List.filter
          (fun (b : Record.workload) ->
            List.exists
              (fun (w : Tce_workloads.Workload.t) ->
                w.Tce_workloads.Workload.name = b.Record.name)
              roster)
          baseline.Record.workloads
      in
      let baseline = { baseline with Record.workloads = kept } in
      let report = check_run ~tolerance_pct ~baseline ~current () in
      print_report ~baseline ~current report;
      if report.ok then 0 else 1
    end
