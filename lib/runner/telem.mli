(** Fleet telemetry coordinator: wires the drivers (bench, faults, gate)
    into {!Tce_telem}.

    One [t] per run owns the metrics registry, the optional OpenMetrics
    snapshot file ([--telemetry-out]), the optional HTTP scrape endpoint
    ([--serve-metrics]), and the optional status board ([--status-board]).
    When none of the three is requested, {!create} returns [Ok None] and
    every caller threads [None] through — the run is then byte-identical
    to a build without telemetry (the supervisor gets
    {!Supervise.null_events}, workers get no [--heartbeat] flag).

    Metric catalog (all labeled with [driver], worker series additionally
    with [shard]; shard 0 is the parent: journal-resumed and in-process
    fallback cells): [tce_cells_scheduled], [tce_cells_completed_total],
    [tce_cells_resumed_total], [tce_worker_retries_total],
    [tce_quarantined_cells], [tce_degraded_cells_total],
    [tce_cell_wall_seconds] (histogram, parent-observed arrival gaps),
    [tce_run_throughput_cells_per_sec], [tce_run_eta_seconds],
    [tce_run_elapsed_seconds],
    [tce_worker_last_progress_timestamp_seconds],
    [tce_worker_cells_per_sec].  Completed + quarantined reconcile exactly
    with the scheduled total. *)

type options = {
  out : string option;  (** [--telemetry-out FILE] *)
  serve : int option;  (** [--serve-metrics PORT] (0 = ephemeral) *)
  board : bool;  (** [--status-board] *)
}

val no_options : options

type t

val create : driver:string -> total:int -> options -> (t option, string) result
(** [Ok None] when no telemetry was requested; [Error] only when the
    scrape endpoint cannot bind.  The endpoint is live before any worker
    spawns so a scraper never races the run. *)

val set_total : t -> int -> unit
val server_port : t -> int option

val events : t -> Supervise.events
(** The supervisor taps feeding this registry and board. *)

val resumed : t -> int -> unit
(** Record [n] journal-replayed cells (their rows also arrive via
    [ev_row ~slot:0]). *)

val heartbeat_args : t option -> slot:int -> string list
(** The worker argv fragment [["--heartbeat"; slot]], empty when
    telemetry is off. *)

val cell_done : t -> name:string -> unit
(** In-process feed: one cell completed in this process (attributed to
    shard 0). *)

val gate_result : t -> ok:bool -> compared:int -> regressions:int -> unit
(** Publish the [--check] verdict as gauges ([tce_gate_pass],
    [tce_gate_compared], [tce_gate_regressions]); registers the families
    on first call. *)

val cache_stats : t -> Cache.stats -> unit
(** Publish the cell-cache counters ([tce_cache_hits],
    [tce_cache_misses], [tce_cache_read_bytes],
    [tce_cache_written_bytes]); registers the families on first call. *)

val snapshot : t -> string
(** Current OpenMetrics rendering. *)

val registry : t -> Tce_telem.Registry.t

val finish : t -> unit
(** Final board frame, final snapshot write, scrape endpoint shutdown. *)
