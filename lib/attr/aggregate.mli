(** Rolls attribution ledgers and per-kind check counters into the
    paper-figure reports: text tables (via {!Tce_support.Table}), JSON
    documents in the {!Tce_obs.Export} envelope (kind ["attr-report"]), and
    the [--explain] rendering.

    [Aggregate] is pure presentation: callers (the CLI's [run] and [bench]
    subcommands, the runner) hand it plain data — it never reaches into
    the engine. *)

val report_kind : string
(** The envelope kind, ["attr-report"]. *)

(** One paper-figure row: dynamic check-instruction counts of one check
    kind, with the mechanism off and on. [removed = off - on]. *)
type kind_row = { kind : string; off : int; on_ : int }

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
  ?kind_rows:kind_row list ->
  checks_executed:(string * int) list ->
  ?cc_occupancy:int array ->
  ?cc_conflicts:int array ->
  Ledger.t ->
  Tce_obs.Json.t
(** Single-program report document (envelope kind {!report_kind}). *)

val suite_report_json :
  (string * kind_row list) list -> Tce_obs.Json.t
(** Suite-level report: per-workload composition rows (from benchmark
    records) plus roster-wide per-kind totals. *)

val suite_table : (string * kind_row list) list -> string
(** Text rendering of the suite report: totals table plus a per-workload
    removal-composition table. *)
