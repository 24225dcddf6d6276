(** Content-addressed cell cache under [results/cache/].

    A {e cell} is one deterministic unit of simulation — a benchmark pair
    (key label [kind=bench-row]) or a fault-campaign cell
    ([kind=fault-cell]). Its cache key digests everything that can change
    the simulated result:

    - the workload identity (name, source digest, iteration count),
    - the full engine/machine configuration via {!Tce_engine.Engine.config_hash}
      (Table 2 core, Class Cache geometry, Class List size, tier-up
      thresholds, seed),
    - the record schema version, and
    - a fingerprint of the simulator binary itself (any rebuild
      invalidates the whole cache — re-simulating is always safe, a stale
      hit never is).

    Values are serialized row JSON with host wall clocks zeroed (cached
    rows are pure simulated data), written atomically so concurrent
    writers can only install complete files. Consulted by {!Runner},
    {!Gate}, {!Campaign} and {!Sweep}; a repeated identical run performs
    zero simulations. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type t

val create : ?dir:string -> unit -> t
(** A cache handle over [dir] (default {!Store.cache_dir}) with fresh
    zeroed counters. The directory is created lazily on first {!store}. *)

val stats : t -> stats

val counts : t option -> int * int
(** [(hits, misses)] so far; [(0, 0)] without a cache. Callers sharing a
    handle subtract a snapshot to count one invocation's lookups. *)

val dir : t -> string

val key : (string * string) list -> string
(** Digest of labelled identity parts, canonicalized by label sort — key
    equality is independent of the order the parts were listed in.
    @raise Invalid_argument on a duplicate label. *)

val bench_key : ?config:Tce_engine.Engine.config -> Tce_workloads.Workload.t
  -> string
(** The cache key of one benchmark pair under [config] (default
    {!Tce_engine.Engine.default_config}). *)

val fault_key :
  ?config:Tce_engine.Engine.config ->
  spec:string ->
  seed:int ->
  Tce_workloads.Workload.t ->
  string
(** The cache key of one fault-campaign cell: the bench identity plus the
    armed singleton [spec] and the cell's injector [seed]. *)

val find : t -> key:string -> Tce_obs.Json.t option
(** Look the key up; a hit touches the LRU clock and counts toward
    [hits]/[bytes_read], a missing or corrupt file is a miss (corrupt
    files are deleted). *)

val store : t -> key:string -> Tce_obs.Json.t -> unit
(** Install a row atomically (tmp + rename); rewriting an existing key is
    idempotent because cells are deterministic. *)

val size_bytes : ?dir:string -> unit -> int
(** Total bytes of cell files under [dir] (default {!Store.cache_dir}). *)

val prune : ?dir:string -> ?max_bytes:int -> unit -> int * int
(** Evict least-recently-used cells until the cache fits in [max_bytes]
    (default 256 MiB); returns [(files_removed,
    bytes_freed)]. *)

val print_stats : ?oc:out_channel -> stats -> unit
(** One summary line to [oc] (default stdout); silent when nothing was
    looked up. *)
