(** Benchmark-roster execution (see runner.mli).

    Each half of a cell is measured by {!Tce_metrics.Harness.run} in a
    freshly built engine; nothing in the stack below it is shared or
    mutable across instances (the simulator is deterministic given the
    source and config), so where a cell runs — this process or a
    supervised worker — cannot change any simulated number. *)

module H = Tce_metrics.Harness
module W = Tce_workloads.Workload
module E = Tce_engine.Engine

let timed_run config w =
  let t0 = Unix.gettimeofday () in
  let r = H.run ~config w in
  (r, Unix.gettimeofday () -. t0)

let pair_cells ~argv (pairs : (E.config * W.t) list) : Record.cell Shard.cells =
  let arr = Array.of_list pairs in
  (* parsed on first use only: workers and in-process runs never schedule *)
  let cost = lazy (Store.baseline_cost_of_workload ()) in
  (* A half reads only its workload and its effective config, so the
     cells of one workload share equal halves: the first cell to need one
     simulates it and reports its host time, the others reuse it and
     report 0. A workload's cells all run in one process, sharded or not.
     A workload with one cell keys and keeps nothing. *)
  let shared =
    lazy
      (let cells = Hashtbl.create 64 in
       Array.iter (fun (_, (w : W.t)) -> Hashtbl.add cells w.W.name ()) arr;
       fun (w : W.t) -> List.compare_length_with (Hashtbl.find_all cells w.W.name) 1 > 0)
  in
  let halves = Hashtbl.create 16 in
  let half config w =
    if not (Lazy.force shared w) then timed_run config w
    else
      let k = Cache.bench_key ~config:(E.effective_config config) w in
      match Hashtbl.find_opt halves k with
      | Some r -> (r, 0.0)
      | None ->
        let r, wall = timed_run config w in
        Hashtbl.add halves k r;
        (r, wall)
  in
  {
    Shard.codec = Shard.cell_codec;
    argv;
    count = Array.length arr;
    name = (fun i -> (snd arr.(i)).W.name);
    workload = (fun i -> (snd arr.(i)).W.name);
    cost = (fun i -> Lazy.force cost (snd arr.(i)));
    key = (fun i -> Cache.bench_key ~config:(fst arr.(i)) (snd arr.(i)));
    run =
      (fun i ->
        let config, w = arr.(i) in
        let off, wall_off = half { config with E.mechanism = false } w in
        let on, wall_on = half { config with E.mechanism = true } w in
        H.check_agree w ~off:off.H.checksum ~on:on.H.checksum;
        (Record.of_pair ~wall_off ~wall_on off on, Some (H.Figures.of_pair off on)));
  }

let bench_cells (ws : W.t list) : Record.cell Shard.cells =
  pair_cells
    ~argv:("bench" :: List.map (fun (w : W.t) -> w.W.name) ws)
    (List.map (fun w -> (E.default_config, w)) ws)

let run_pairs ?cache pairs : Record.cell list =
  let s =
    Shard.run ?cache ~journal_path:Store.bench_journal_path ~shards:1
      ~worker_args:[] (pair_cells ~argv:[] pairs)
  in
  List.map snd s.Shard.rows

let run_one ?cache (w : W.t) : Record.workload =
  fst (List.hd (run_pairs ?cache [ (E.default_config, w) ]))

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
