(** JSON export of an engine's counters (a versioned {!Tce_obs.Export}
    document). *)

(** Per-category instruction counts keyed by {!Tce_jit.Categories} name. *)
val by_cat_json : int array -> Tce_obs.Json.t

(** Live engine counters, for runs of arbitrary programs (kind
    ["run-stats"]). *)
val engine_json : Tce_engine.Engine.t -> Tce_obs.Json.t

val engine_document : Tce_engine.Engine.t -> Tce_obs.Json.t
