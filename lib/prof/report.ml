(** Profile reports: single-run text, differential (checks-off vs
    checks-on, run vs run), and the roster-wide [prof-report] envelope.
    See report.mli. *)

module J = Tce_obs.Json
module P = Profile

type pair = {
  p_name : string;
  p_off : P.summary option;
  p_on : P.summary option;
}

let pct part whole = if whole = 0. then 0. else 100. *. part /. whole

(* --- single-run text report --- *)

let text_report (s : P.summary) : string =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "profile: %s (mechanism %s)\n" s.P.program
    (if s.P.mechanism then "on" else "off");
  pf "  total %.0f cycles = %d machine + %d baseline instrs x %.2f cpi\n"
    s.P.total_cycles s.P.machine_cycles s.P.baseline_instrs s.P.baseline_cpi;
  pf "  machine cycles by cost kind:\n";
  Array.iter
    (fun (k, v) ->
      if v > 0 then
        pf "    %-10s %12d  %5.1f%%\n" k v
          (pct (float_of_int v) (float_of_int s.P.machine_cycles)))
    s.P.by_cost;
  pf "  machine cycles by instruction label:\n";
  Array.iter
    (fun (k, v) ->
      pf "    %-14s %12d  %5.1f%%\n" k v
        (pct (float_of_int v) (float_of_int s.P.machine_cycles)))
    s.P.by_label;
  pf "  baseline instructions by bytecode label:\n";
  Array.iter
    (fun (k, v) ->
      pf "    %-16s %12d  %5.1f%%\n" k v
        (pct (float_of_int v) (float_of_int s.P.baseline_instrs)))
    s.P.base_by_label;
  pf "  hottest machine sites:\n";
  List.iter
    (fun (st : P.site) ->
      pf "    %-24s pc%-5d %-14s %12d\n" st.P.s_fn st.P.s_pc st.P.s_label
        st.P.s_cycles)
    s.P.top_sites;
  Buffer.contents b

(* --- differential: checks-off vs checks-on --- *)

let tally_to_assoc a = Array.to_list a

(** Merge two label tallies into (label, off, on) rows ordered by
    descending absolute delta. *)
let merge_tallies off on =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (v, 0)) (tally_to_assoc off);
  List.iter
    (fun (k, v) ->
      let o = try fst (Hashtbl.find tbl k) with Not_found -> 0 in
      Hashtbl.replace tbl k (o, v))
    (tally_to_assoc on);
  let rows = Hashtbl.fold (fun k (o, n) acc -> (k, o, n) :: acc) tbl [] in
  List.sort
    (fun (ka, oa, na) (kb, ob, nb) ->
      let da = abs (oa - na) and db = abs (ob - nb) in
      if da <> db then compare db da else compare ka kb)
    rows

(** Where did the removed checks' cycles go? For each workload with both
    sides profiled: totals off/on and the per-label machine-cycle deltas
    (positive = cycles the mechanism removed). *)
let diff_table (pairs : pair list) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%-24s %14s %14s %9s\n" "workload" "off cycles" "on cycles" "saved";
  let agg_off = Hashtbl.create 16 and agg_on = Hashtbl.create 16 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0)
  in
  let compared = ref 0 in
  List.iter
    (fun p ->
      match (p.p_off, p.p_on) with
      | Some off, Some on ->
        incr compared;
        pf "%-24s %14.0f %14.0f %+8.2f%%\n" p.p_name off.P.total_cycles
          on.P.total_cycles
          (pct (off.P.total_cycles -. on.P.total_cycles) off.P.total_cycles);
        Array.iter (fun (k, v) -> bump agg_off k v) off.P.by_label;
        Array.iter (fun (k, v) -> bump agg_on k v) on.P.by_label
      | _ -> pf "%-24s (missing a side)\n" p.p_name)
    pairs;
  if !compared > 0 then begin
    pf "\nmachine cycles by instruction label (off -> on, %d workloads):\n"
      !compared;
    pf "  %-14s %14s %14s %14s\n" "label" "off" "on" "removed";
    let off_rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg_off []
      |> List.sort compare |> Array.of_list
    in
    let on_rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg_on []
      |> List.sort compare |> Array.of_list
    in
    List.iter
      (fun (k, o, n) -> pf "  %-14s %14d %14d %+14d\n" k o n (o - n))
      (merge_tallies off_rows on_rows)
  end;
  Buffer.contents b

(** Per-label machine-cycle deltas (off - on) aggregated across all pairs:
    positive means the mechanism removed those cycles. Exposed for the
    sign-correctness test. *)
let label_deltas (pairs : pair list) : (string * int) list =
  let agg = Hashtbl.create 16 in
  let bump k v =
    Hashtbl.replace agg k (v + try Hashtbl.find agg k with Not_found -> 0)
  in
  List.iter
    (fun p ->
      match (p.p_off, p.p_on) with
      | Some off, Some on ->
        Array.iter (fun (k, v) -> bump k v) off.P.by_label;
        Array.iter (fun (k, v) -> bump k (-v)) on.P.by_label
      | _ -> ())
    pairs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [] |> List.sort compare

(* --- differential: run vs run --- *)

(** Compare the mechanism-on profiles of two runs of the same roster
    (e.g. PROF_latest.json vs a kept copy of an earlier one): per-workload
    total drift plus the cost-kind mix shifts behind it. *)
let diff_runs ~(base : pair list) ~(cur : pair list) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let find name = List.find_opt (fun p -> p.p_name = name) cur in
  pf "%-24s %14s %14s %9s\n" "workload" "base cycles" "cur cycles" "drift";
  let agg_b = Hashtbl.create 16 and agg_c = Hashtbl.create 16 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0)
  in
  List.iter
    (fun bp ->
      match (bp.p_on, find bp.p_name) with
      | Some bs, Some { p_on = Some cs; _ } ->
        pf "%-24s %14.0f %14.0f %+8.2f%%\n" bp.p_name bs.P.total_cycles
          cs.P.total_cycles
          (pct (cs.P.total_cycles -. bs.P.total_cycles) bs.P.total_cycles);
        Array.iter (fun (k, v) -> bump agg_b k v) bs.P.by_cost;
        Array.iter (fun (k, v) -> bump agg_c k v) cs.P.by_cost
      | _ -> pf "%-24s (missing from current run)\n" bp.p_name)
    base;
  pf "\nmachine cycles by cost kind (base -> cur):\n";
  pf "  %-10s %14s %14s %14s\n" "cost" "base" "cur" "delta";
  let rows tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare |> Array.of_list
  in
  List.iter
    (fun (k, o, n) -> pf "  %-10s %14d %14d %+14d\n" k o n (n - o))
    (merge_tallies (rows agg_b) (rows agg_c));
  Buffer.contents b

(* --- JSON / envelope --- *)

let pair_to_json p =
  J.Obj
    (("name", J.Str p.p_name)
    :: (match p.p_off with
       | Some s -> [ ("off", P.summary_to_json s) ]
       | None -> [])
    @ match p.p_on with Some s -> [ ("on", P.summary_to_json s) ] | None -> [])

let ( let* ) = Result.bind

let pair_of_json j : (pair, string) result =
  let* p_name = J.field "name" J.to_str j in
  (* a side that was not profiled is absent *)
  let side k =
    match J.member k j with
    | None -> Ok None
    | Some sj ->
      Result.map Option.some
        (Result.map_error (Printf.sprintf "%s: %s" k) (P.summary_of_json sj))
  in
  let* p_off = side "off" in
  let* p_on = side "on" in
  Ok { p_name; p_off; p_on }

let kind = "prof-report"

let suite_doc ~git_sha ~config_hash ~created_utc (pairs : pair list) : J.t =
  Tce_obs.Export.document ~kind
    (J.Obj
       [
         ("git_sha", J.Str git_sha);
         ("config_hash", J.Str config_hash);
         ("created_utc", J.Str created_utc);
         ("workloads", J.List (List.map pair_to_json pairs));
       ])

let suite_of_json (j : J.t) : (pair list, string) result =
  let* data = Tce_obs.Export.open_document ~kind j in
  let* items = J.field "workloads" J.to_list data in
  J.decode_all "workloads" pair_of_json items
