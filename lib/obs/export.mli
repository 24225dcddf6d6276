(** Versioned JSON export envelope.

    Every document the repo writes as machine-readable output — run
    stats, bench-run records, fault campaigns, sweeps, worker rows and
    journal headers, attribution and profile reports — goes through
    {!document}, so every artifact self-identifies with [schema_version] +
    [kind], and every reader opens it through {!open_document}, the one
    envelope and kind check. Bump {!schema_version} on any breaking field
    change. *)

val schema_version : int

(** [document ~kind data] = [{"schema_version": ...; "kind": kind;
    "generator": "tce"; "data": data}]. *)
val document : kind:string -> Json.t -> Json.t

(** [open_document ~kind j]: the payload of [j] when it is a well-formed
    envelope of this (or an older) schema version whose kind is [kind];
    otherwise an error such as
    [expected a fault-campaign document, got "sweep"]. *)
val open_document : kind:string -> Json.t -> (Json.t, string) result

(** Write pretty-printed JSON (trailing newline included). [path] "-"
    writes to stdout. File writes are crash-safe: the document is staged in
    a temp file in the destination directory and atomically renamed into
    place, so readers never observe a truncated JSON document. *)
val to_file : path:string -> Json.t -> unit
