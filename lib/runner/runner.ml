(** Benchmark-roster execution (see runner.mli).

    Each workload is measured by {!Tce_metrics.Harness.run_pair_timed} in a
    freshly built engine; nothing in the stack below it is shared or
    mutable across instances (the simulator is deterministic given the
    source and config), so where a cell runs — this process or a
    supervised worker — cannot change any simulated number. *)

module H = Tce_metrics.Harness
module W = Tce_workloads.Workload

let simulate_one (w : W.t) : Record.cell =
  let off, on, wall_off, wall_on = H.run_pair_timed w in
  (Record.of_pair ~wall_off ~wall_on off on, Some (H.Figures.of_pair off on))

(** Profile the roster serially: one {!H.run_pair_profiled} per workload,
    fresh engines and a fresh profile per side. *)
let run_profiles (ws : W.t list) : H.profiled list =
  List.map (fun w -> H.run_pair_profiled w) ws

let bench_cells (ws : W.t list) : Record.cell Shard.cells =
  let arr = Array.of_list ws in
  (* parsed on first use only: workers and in-process runs never schedule *)
  let cost = lazy (Store.baseline_cost_of_workload ()) in
  {
    Shard.codec = Shard.cell_codec;
    argv = "bench" :: List.map (fun (w : W.t) -> w.W.name) ws;
    count = Array.length arr;
    name = (fun i -> arr.(i).W.name);
    workload = (fun i -> arr.(i).W.name);
    cost = (fun i -> Lazy.force cost arr.(i));
    key = (fun i -> Cache.bench_key arr.(i));
    run = (fun i -> simulate_one arr.(i));
  }

let run_one ?cache (w : W.t) : Record.workload =
  let s =
    Shard.run ?cache ~journal_path:Store.bench_journal_path ~shards:1
      ~worker_args:[] (bench_cells [ w ])
  in
  fst (snd (List.hd s.Shard.rows))

let run_suite ?exe ?spawn ?log_dir ?supervise
    ?(journal_path = Store.bench_journal_path) ?resume ?chaos ?cache ?jobs
    ?on_row ?(shards = 1) ?(worker_args = []) (ws : W.t list) : Record.run =
  Shard.serial_jobs jobs;
  let t0 = Unix.gettimeofday () in
  let s =
    Shard.run ?exe ?spawn ?log_dir ?supervise ~journal_path ?resume ?chaos
      ?cache
      ?on_row:(Option.map (fun f (w, _) -> f w) on_row)
      ~shards ~worker_args (bench_cells ws)
  in
  let cells = List.map snd s.Shard.rows in
  Store.make_run ~shards ~quarantined:s.Shard.quarantined
    ~resumed_rows:s.Shard.resumed ~cache_stats:s.Shard.cache_stats
    ~figures:(Record.figures_of_cells cells)
    ~host_wall_seconds:(Unix.gettimeofday () -. t0)
    (List.map fst cells)
