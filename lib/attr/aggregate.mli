(** Renders one program's attribution ledger and per-kind check counts
    as the [run --explain] reports: a text report with tables (via
    {!Tce_support.Table}) and a JSON document in the {!Tce_obs.Export}
    envelope (kind ["attr-report"]).

    [Aggregate] is pure presentation: its caller, the CLI's [run]
    subcommand, hands it plain data — it never reaches into the engine. *)

val report_kind : string
(** The envelope kind, ["attr-report"]. *)

val explain_text :
  program:string ->
  checks_executed:(string * int) list ->
  ?cc_occupancy:int array ->
  ?cc_conflicts:int array ->
  Ledger.t ->
  string
(** The full [tcejs run --explain] text report. [checks_executed] is the
    per-kind dynamic count of checks that actually ran (kept checks). *)

val report_json :
  program:string ->
  checks_executed:(string * int) list ->
  ?cc_occupancy:int array ->
  ?cc_conflicts:int array ->
  Ledger.t ->
  Tce_obs.Json.t
(** Single-program report document (envelope kind {!report_kind}). *)
