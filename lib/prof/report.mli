(** Profile reports and the [prof-report] envelope.

    Three consumers of {!Profile.summary} data:
    - a single-run text breakdown for [tcejs --profile],
    - the differential views — checks-off vs checks-on ("where did the
      removed checks' cycles go?") and run-vs-run drift between two
      [prof-report] files,
    - the roster-wide JSON suite the runner persists as
      [results/PROF_latest.json]. *)

type pair = {
  p_name : string;  (** workload name *)
  p_off : Profile.summary option;  (** mechanism-off side, when profiled *)
  p_on : Profile.summary option;  (** mechanism-on side, when profiled *)
}

val text_report : Profile.summary -> string
(** Human-readable single-run breakdown: totals, machine cycles by cost
    kind and by instruction label, baseline instructions by bytecode
    label, hottest sites. *)

val diff_table : pair list -> string
(** Checks-off vs checks-on: per-workload totals with the saving, then
    aggregate per-label machine-cycle deltas (positive = cycles the
    mechanism removed). *)

val label_deltas : pair list -> (string * int) list
(** Aggregate per-label machine-cycle deltas (off minus on) across all
    fully profiled pairs, sorted by label — positive means the mechanism
    removed those cycles. Used by the sign-correctness test. *)

val diff_runs : base:pair list -> cur:pair list -> string
(** Run-vs-run drift on the mechanism-on side: per-workload total-cycle
    drift plus the aggregate cost-kind mix shift. *)

val kind : string
(** The envelope kind, ["prof-report"]. *)

val suite_doc :
  git_sha:string ->
  config_hash:string ->
  created_utc:string ->
  pair list ->
  Tce_obs.Json.t
(** The versioned [prof-report] document (provenance + per-workload
    pairs) written to [results/PROF_latest.json]. *)

val suite_of_json : Tce_obs.Json.t -> (pair list, string) result

val pair_to_json : pair -> Tce_obs.Json.t
val pair_of_json : Tce_obs.Json.t -> (pair, string) result
(** One workload's entry of {!suite_doc}; decoding ignores other members. *)
