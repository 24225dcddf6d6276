(** Cross-run trend analytics over the archived result history (see
    trend_data.mli). *)

module Trends = Tce_telem.Trends

let trends_dir = Filename.concat "results" "trends"

(* "run-20260805T120102Z-ab12cd34ef56.json" -> "20260805T120102Z-ab1" —
   enough to identify a run on an axis label without drowning the report
   (campaign files lead with the full timestamp already). *)
let label_of_filename f =
  let base = Filename.remove_extension (Filename.basename f) in
  let base =
    if String.length base > 4 && String.sub base 0 4 = "run-" then
      String.sub base 4 (String.length base - 4)
    else base
  in
  if String.length base > 20 then String.sub base 0 20 else base

let list_sorted dir prefix =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    let fs = Array.to_list files in
    List.sort compare
      (List.filter
         (fun f ->
           String.length f > String.length prefix
           && String.sub f 0 (String.length prefix) = prefix
           && Filename.check_suffix f ".json")
         fs)

let last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

(* --- bench history series --- *)

let bench_series ~history_dir ~n =
  let files = last n (list_sorted history_dir "run-") in
  let runs =
    List.filter_map
      (fun f ->
        let path = Filename.concat history_dir f in
        match Store.load path with
        | Ok r -> Some (label_of_filename f, r)
        | Error e ->
          Printf.eprintf "trends: skipping unreadable %s: %s\n%!" path e;
          None)
      files
  in
  match List.rev runs with
  | [] -> ([], 0, 0)
  | (_, newest) :: _ ->
    (* Only runs produced by the current configuration are comparable;
       mixing config hashes would flag every parameter change as an
       anomaly on every workload. *)
    let current = newest.Record.config_hash in
    let comparable =
      List.filter (fun (_, r) -> r.Record.config_hash = current) runs
    in
    let excluded = List.length runs - List.length comparable in
    let by_workload = Hashtbl.create 64 in
    List.iter
      (fun (label, (r : Record.run)) ->
        List.iter
          (fun (w : Record.workload) ->
            let prev =
              try Hashtbl.find by_workload w.Record.name
              with Not_found -> []
            in
            Hashtbl.replace by_workload w.Record.name ((label, w) :: prev))
          r.Record.workloads)
      comparable;
    let names =
      List.sort compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) by_workload [])
    in
    let metric name sel unit flag entries =
      {
        Trends.sr_group = name;
        sr_metric = sel;
        sr_unit = unit;
        sr_flag = flag;
        sr_points =
          List.map
            (fun (label, v) -> { Trends.pt_label = label; pt_value = v })
            entries;
      }
    in
    let per_workload =
      List.concat_map
        (fun name ->
          let entries = List.rev (Hashtbl.find by_workload name) in
          let pick f = List.map (fun (l, w) -> (l, f w)) entries in
          [
            (* Deterministic simulated metrics flag; host wall is
               environment-dependent and stays informational. *)
            metric name "cycles_on"
              "cycles" true
              (pick (fun w -> w.Record.cycles_on));
            metric name "check_removal_pct" "%" true
              (pick (fun w -> w.Record.check_removal_pct));
            metric name "deopts_on" "" true
              (pick (fun w -> float_of_int w.Record.deopts_on));
            metric name "wall_seconds" "s" false
              (pick (fun w -> w.Record.wall_seconds));
          ])
        names
    in
    let suite =
      [
        metric "suite" "host_wall_seconds" "s" false
          (List.map
             (fun (l, (r : Record.run)) -> (l, r.Record.host_wall_seconds))
             comparable);
        metric "suite" "workloads" "" false
          (List.map
             (fun (l, (r : Record.run)) ->
               (l, float_of_int (List.length r.Record.workloads)))
             comparable);
      ]
    in
    (suite @ per_workload, List.length comparable, excluded)

(* --- fault-campaign history series --- *)

let campaign_series ~campaigns_dir ~n =
  let files = last n (list_sorted campaigns_dir "") in
  let campaigns =
    List.filter_map
      (fun f ->
        let path = Filename.concat campaigns_dir f in
        match Campaign.load path with
        | Ok c -> Some (label_of_filename f, c)
        | Error e ->
          Printf.eprintf "trends: skipping unreadable %s: %s\n%!" path e;
          None)
      files
  in
  if campaigns = [] then []
  else
    let count label o =
      List.map
        (fun (l, (c : Campaign.t)) ->
          ( l,
            float_of_int
              (List.length
                 (List.filter
                    (fun (cell : Campaign.cell) -> cell.Campaign.outcome = o)
                    c.Campaign.cells)) ))
        campaigns
      |> List.map (fun (l, v) -> { Trends.pt_label = l; pt_value = v })
      |> fun points ->
      {
        Trends.sr_group = "fault-campaign";
        sr_metric = label;
        sr_unit = "cells";
        sr_points = points;
        (* any wrong-answer drift must flag; the benign outcome mix is
           informational *)
        sr_flag = o = Campaign.Wrong;
      }
    in
    [
      count "wrong" Campaign.Wrong;
      count "detected_recovered" Campaign.Detected_recovered;
      count "degraded" Campaign.Degraded;
      count "masked" Campaign.Masked;
      count "not_exercised" Campaign.Not_exercised;
    ]

let latest_time_report_note () =
  let path = Store.time_report_path () in
  if Sys.file_exists path then
    Printf.sprintf "latest time report: %s\n" path
  else ""

let run ?(history_dir = Store.history_dir)
    ?(campaigns_dir = Campaign.campaigns_dir) ?(out_dir = trends_dir)
    ?(n = 20) () : (int, string) result =
  let bench, compared, excluded = bench_series ~history_dir ~n in
  let faults = campaign_series ~campaigns_dir ~n in
  let series = bench @ faults in
  if series = [] then
    Error
      (Printf.sprintf "no history found under %s or %s" history_dir
         campaigns_dir)
  else begin
    let anomalies = Trends.detect series in
    let title =
      Printf.sprintf "tce trends: last %d run(s), %d comparable" n compared
    in
    let txt = Trends.text_report ~title series anomalies in
    let html =
      Trends.html_dashboard ~title ~generated:(Store.timestamp_utc ()) series
        anomalies
    in
    Store.mkdir_p out_dir;
    let write path text =
      let oc = open_out path in
      output_string oc text;
      close_out oc
    in
    write (Filename.concat out_dir "trends.txt") txt;
    write (Filename.concat out_dir "trends.html") html;
    print_string txt;
    if excluded > 0 then
      Printf.printf
        "(%d run(s) with a different config hash excluded from comparison)\n"
        excluded;
    print_string (latest_time_report_note ());
    Printf.printf "wrote %s and %s\n"
      (Filename.concat out_dir "trends.txt")
      (Filename.concat out_dir "trends.html");
    Ok (List.length anomalies)
  end
