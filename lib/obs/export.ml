(** Versioned JSON export envelope (see export.mli). *)

(* v2: records carry a per-kind check-removal composition block
   ([checks_by_kind]) and the [attr-report] document kind exists.
   v3: bench-run workloads carry per-side host wall clocks
   ([wall_seconds_off]/[wall_seconds_on], provenance-only).
   v4: the [prof-report] (roster-wide cycle-attribution profiles) and
   the --time wall-table document kinds exist; Chrome traces gain
   [prof/<cost>] counter tracks.
   v5: the [telem] worker heartbeat envelope kind existed (single-line
   progress beats interleaved with the workers' row streams). It has
   since been retired, as have the --time wall table, the dev probe
   kinds and the every-field harness dump; no surviving v5 document
   changed with them, so the version stays 5. The bench, fault and sweep
   row envelopes became one [row] kind, and journals gained a [journal]
   header; both pass only between a parent and its own workers and into
   journals pinned to one build, so neither needed a bump.
   Older documents remain readable ([open_document] accepts 1..version);
   readers that need version-dependent defaults use [open_document_v]. *)
let schema_version = 5

let document ~kind data =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.Str kind);
      ("generator", Json.Str "tce");
      ("data", data);
    ]

let open_document_v j =
  match (Json.member "schema_version" j, Json.member "kind" j, Json.member "data" j) with
  | Some (Json.Int v), Some (Json.Str kind), Some data ->
    if v >= 1 && v <= schema_version then Ok (v, kind, data)
    else
      Error
        (Printf.sprintf
           "unsupported schema_version %d (this build supports 1..%d)" v
           schema_version)
  | _ -> Error "missing schema_version/kind/data envelope fields"

let open_document j =
  Result.map (fun (_, kind, data) -> (kind, data)) (open_document_v j)

let to_channel oc j =
  output_string oc (Json.to_string_pretty j);
  output_char oc '\n'

(* Crash-safe write: emit into a temp file in the destination directory,
   then atomically rename over [path]. An interrupted or faulted run can
   truncate the temp file, never the published document. *)
let to_file ~path j =
  if path = "-" then to_channel stdout j
  else begin
    let dir = Filename.dirname path in
    let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
    (try
       let oc = open_out tmp in
       Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc j)
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path
  end
