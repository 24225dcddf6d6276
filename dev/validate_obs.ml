(* Validate observability JSON artifacts.

   Usage:
     validate_obs chrome FILE [require-deopt]
       - FILE parses as JSON, has a traceEvents array, and every event
         carries name/ph/pid; with [require-deopt], at least one tierup
         and one deopt instant (with a non-empty reason) must be present.
     validate_obs export FILE KIND
       - FILE opens as a Tce_obs.Export document of kind KIND (a schema
         version this build reads); the report names that version.
     validate_obs jsonl FILE
       - every line of FILE parses as a JSON object with at/event keys.
     validate_obs campaign FILE REFERENCE
       - every cell of the fault campaign FILE equals the cell of the same
         (workload, point) in the campaign REFERENCE. *)

module J = Tce_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_obs: " ^ m); exit 1) fmt

let or_fail = function Ok v -> v | Error e -> fail "%s" e
let parse path = or_fail (Tce_runner.Store.read_json path Result.ok)

let check_chrome path require_deopt =
  let j = parse path in
  let events =
    match J.member "traceEvents" j with
    | Some (J.List l) -> l
    | _ -> fail "%s: no traceEvents array" path
  in
  List.iter
    (fun e ->
      let has k = J.member k e <> None in
      if not (has "name" && has "ph" && has "pid") then
        fail "%s: event missing name/ph/pid: %s" path (J.to_string e))
    events;
  let cat_is c e = match J.member "cat" e with Some (J.Str s) -> s = c | _ -> false in
  let tierups = List.filter (cat_is "tierup") events in
  let deopts = List.filter (cat_is "deopt") events in
  if require_deopt then begin
    if tierups = [] then fail "%s: no tierup events" path;
    (match deopts with
    | [] -> fail "%s: no deopt events" path
    | _ ->
      List.iter
        (fun e ->
          match J.member "args" e with
          | Some args -> (
            match J.member "reason" args with
            | Some (J.Str r) when String.length r > 0 -> ()
            | _ -> fail "%s: deopt event with empty reason" path)
          | None -> fail "%s: deopt event without args" path)
        deopts)
  end;
  Printf.printf "validate_obs: %s OK (%d events, %d tierups, %d deopts)\n" path
    (List.length events) (List.length tierups) (List.length deopts)

let check_export path kind =
  let j = parse path in
  ignore (or_fail (Tce_obs.Export.open_document ~kind j));
  (* the document's own version: the envelope check accepts older ones *)
  Printf.printf "validate_obs: %s OK (kind %s, schema v%d)\n" path kind
    (or_fail (J.field "schema_version" J.to_int j))

let check_jsonl path =
  let lines =
    String.split_on_char '\n' (or_fail (Tce_runner.Store.read_file path))
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.iteri
    (fun i l ->
      match J.of_string l with
      | Ok j ->
        if J.member "at" j = None || J.member "event" j = None then
          fail "%s:%d: record missing at/event" path (i + 1)
      | Error e -> fail "%s:%d: %s" path (i + 1) e)
    lines;
  Printf.printf "validate_obs: %s OK (%d records)\n" path (List.length lines)

let check_campaign path ref_path =
  let load p = or_fail (Tce_runner.Campaign.load p) in
  let cur = load path in
  match Tce_runner.Campaign.diff_cells ~reference:(load ref_path) cur with
  | [] ->
    Printf.printf "validate_obs: %s OK (%d cells match %s)\n" path
      (List.length cur.Tce_runner.Campaign.cells) ref_path
  | diffs ->
    List.iter prerr_endline diffs;
    fail "%s: %d cell(s) differ from %s" path (List.length diffs) ref_path

let () =
  match Array.to_list Sys.argv with
  | _ :: "chrome" :: path :: rest -> check_chrome path (rest = [ "require-deopt" ])
  | [ _; "export"; path; kind ] -> check_export path kind
  | [ _; "jsonl"; path ] -> check_jsonl path
  | [ _; "campaign"; path; ref_path ] -> check_campaign path ref_path
  | _ -> fail "usage: validate_obs (chrome|export|jsonl|campaign) FILE [...]"
