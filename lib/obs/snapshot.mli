(** Periodic counter sampling into a deterministic time series.

    The engine calls {!tick} at cheap, well-defined points (guest calls,
    store events) with the machine's cycle clock; a sample is taken when at
    least [every] cycles elapsed since the previous one. Because the clock
    is the simulated cycle count — never wall time — the series is
    bit-reproducible across runs. Samples feed the Chrome-trace counter
    tracks (deopts, Class Cache occupancy, heap bytes). *)

type sample = {
  at : int;  (** cycle stamp *)
  deopts : int;
  cc_occupancy : int;  (** valid Class Cache ways *)
  cc_set_occupancy : int array;
      (** valid ways per set, bucketed to at most 8 tracks (see the engine's
          sampling site) — the Perfetto occupancy heatmap *)
  cc_conflicts : int;  (** cumulative valid-victim evictions *)
  heap_bytes : int;
  prof_costs : (string * int) array;
      (** running profiler machine-cycle totals per cost kind at the
          sample point (empty when profiling is off) — rendered as
          [prof/<cost>] counter tracks *)
}

type t

(** The shared inactive sampler: {!tick} is a no-op. *)
val disabled : t

(** Sample every [every] cycles ([every <= 0] gives an inactive sampler). *)
val create : every:int -> t

val active : t -> bool

(** [tick t ~now f] records [f ()] when due. [f] must only be evaluated on
    a due tick (the sampling sites rely on this for the zero-cost path). *)
val tick : t -> now:int -> (unit -> sample) -> unit

(** Samples taken so far, chronological. *)
val samples : t -> sample list
