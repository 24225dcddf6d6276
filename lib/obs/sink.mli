(** Render a {!Trace} ring (plus optional {!Snapshot} series) to consumable
    formats: JSON-lines for scripting, and Chrome [trace_event] JSON for
    timeline UIs (chrome://tracing, Perfetto). *)

(** One JSON object per line, oldest first; ends with a newline when any
    event was recorded. *)
val jsonl : Trace.t -> string

(** One counter-track sample (["ph": "C"]) at simulated cycle [at]. *)
val counter : at:int -> string -> int -> Json.t

(** All counter-track events for a sampler's series, ready to pass as
    [chrome ~counters]. Each sample gives, in the historical Chrome-trace
    track order: [deopts], [cc-occupancy], [cc-conflicts], [heap-bytes],
    then [cc-occupancy/sets-N] per Class Cache set and [prof/<cost>] per
    cost kind. *)
val chrome_counters : Snapshot.t -> Json.t list

(** Chrome trace_event document: [{"traceEvents": [...], ...}]. Tracks:
    one thread per tier (baseline / optimized / compiler) carrying instant
    events, plus any pre-built counter samples (see {!counter}) appended
    by the caller. Timestamps are simulated cycles rendered as
    microseconds. *)
val chrome : ?counters:Json.t list -> Trace.t -> Json.t

(** Render the trace in the given format ("json" = JSON-lines). *)
val render : format:[ `Jsonl | `Chrome ] -> ?counters:Json.t list -> Trace.t -> string

val write_file : path:string -> string -> unit
