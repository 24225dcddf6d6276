(** JSON export of an engine's counters (a versioned {!Tce_obs.Export}
    document). *)

(** Live engine counters, for runs of arbitrary programs, as a document
    of kind ["run-stats"]. *)
val engine_document : Tce_engine.Engine.t -> Tce_obs.Json.t
