(** Regression gate (see gate.mli). *)

type report = {
  compared : (Record.workload * Record.workload) list;
  differ : (string * string list) list;
  missing : string list;
  quarantined : string list;
  config_mismatch : bool;
  ok : bool;
}

let check_run ~baseline ~current () : report =
  let find name =
    List.find_opt (fun (w : Record.workload) -> w.Record.name = name) current.Record.workloads
  in
  (* A baseline workload absent because the supervisor quarantined it is
     not a regression — the gate compares only the completed rows and
     reports it. A workload absent for any other reason still fails. *)
  let quarantined_names =
    List.map (fun q -> q.Supervise.q_name) current.Record.quarantined
  in
  let compared, missing, quarantined =
    List.fold_left
      (fun (cmp, miss, quar) (b : Record.workload) ->
        match find b.Record.name with
        | Some c -> ((b, c) :: cmp, miss, quar)
        | None when List.mem b.Record.name quarantined_names ->
          (cmp, miss, b.Record.name :: quar)
        | None -> (cmp, b.Record.name :: miss, quar))
      ([], [], []) baseline.Record.workloads
  in
  let compared = List.rev compared in
  (* the field diff is built only for the rows that already failed *)
  let differ =
    List.filter_map
      (fun ((b : Record.workload), c) ->
        if Record.equal_deterministic b c then None
        else Some (b.Record.name, Record.diff b c))
      compared
  in
  let missing = List.rev missing and quarantined = List.rev quarantined in
  let config_mismatch = baseline.Record.config_hash <> current.Record.config_hash in
  let ok = (not config_mismatch) && missing = [] && differ = [] in
  { compared; differ; missing; quarantined; config_mismatch; ok }

(* --- reporting --- *)

let print_report ~baseline ~current (r : report) =
  if r.config_mismatch then
    Printf.printf
      "CONFIG MISMATCH: baseline %s vs current %s — numbers are not \
       comparable; refresh the baseline (see EXPERIMENTS.md)\n"
      baseline.Record.config_hash current.Record.config_hash;
  List.iter
    (fun (b : Record.workload) ->
      let name = b.Record.name in
      match List.assoc_opt name r.differ with
      | Some fields ->
        Printf.printf "%-22s DIFFERS in %d field(s)\n" name (List.length fields);
        List.iter (Printf.printf "  %s\n") fields
      | None ->
        if List.mem name r.quarantined then
          Printf.printf "%-22s QUARANTINED (non-gating, excluded)\n" name
        else if List.mem name r.missing then
          Printf.printf "%-22s MISSING from current run\n" name)
    baseline.Record.workloads;
  let n = List.length r.compared in
  let rows =
    if r.differ = [] then Printf.sprintf "all %d rows identical" n
    else
      let mean, ci =
        Tce_support.Stats.mean_ci95
          (List.map
             (fun ((b : Record.workload), (c : Record.workload)) ->
               Tce_support.Stats.rel_delta_pct ~base:b.Record.cycles_on
                 ~cur:c.Record.cycles_on)
             r.compared)
      in
      Printf.sprintf "%d of %d rows differ, mean cycles_on delta %+.2f%% (±%.2f)"
        (List.length r.differ) n mean ci
  in
  let listed what = function
    | [] -> ""
    | names -> Printf.sprintf ", %s: %s" what (String.concat ", " names)
  in
  Printf.printf "gate: %s — %s%s%s\n"
    (if r.ok then "PASS" else "FAIL")
    rows (listed "missing" r.missing)
    (listed "quarantined" r.quarantined)

(* --- end-to-end driver (bench/main.exe -- check) --- *)

let run_gate ?(baseline_path = Store.baseline_path) ?cache ?(names = [])
    ?(resolve = Tce_workloads.Workloads.by_name) ?shards ?supervise () : int =
  let fail fmt = Printf.kfprintf (fun _ -> 2) stderr ("gate: " ^^ fmt ^^ "\n") in
  let regenerate = "dune exec bench/main.exe -- bench --out " ^ baseline_path in
  match Store.load baseline_path with
  | Error msg ->
    (* say why the baseline is unusable (the message names the file) and
       how to produce a good one *)
    fail "baseline unusable: %s\nWrite one from a known-good checkout:\n  %s" msg
      regenerate
  | Ok baseline -> (
    (* Run exactly the baseline's roster (optionally narrowed to [names])
       so a subset invocation compares subset-to-subset. *)
    let rows =
      List.filter
        (fun (b : Record.workload) -> names = [] || List.mem b.Record.name names)
        baseline.Record.workloads
    in
    let unresolved =
      List.filter_map
        (fun (b : Record.workload) ->
          if resolve b.Record.name = None then Some b.Record.name else None)
        rows
    in
    let has n =
      List.exists (fun (b : Record.workload) -> b.Record.name = n) baseline.Record.workloads
    in
    match List.filter (fun n -> not (has n)) names with
    | _ :: _ as unmatched ->
      (* a misspelt name must not shrink the comparison to the others *)
      fail "baseline %s has no row for %d workload(s): %s" baseline_path
        (List.length unmatched) (String.concat ", " unmatched)
    | [] when unresolved <> [] ->
      (* A baseline naming unknown workloads is from a different roster
         (renamed/removed benchmarks): comparing the remainder would
         silently shrink the gate's coverage, so fail loudly instead. *)
      fail
        "baseline %s names %d workload(s) not in this build's registry: %s.\n\
         The baseline was made from a different benchmark roster — \
         regenerate it:\n\
        \  %s"
        baseline_path (List.length unresolved) (String.concat ", " unresolved)
        regenerate
    | [] when rows = [] ->
      fail "no baseline workloads selected to compare (baseline %s has no workloads)"
        baseline_path
    | [] ->
      let current =
        Runner.run_suite ?supervise ?cache ?shards
          (List.filter_map (fun (b : Record.workload) -> resolve b.Record.name) rows)
      in
      let baseline = { baseline with Record.workloads = rows } in
      let report = check_run ~baseline ~current () in
      print_report ~baseline ~current report;
      if report.ok then 0 else 1)
