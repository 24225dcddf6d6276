(** Benchmark-roster execution (see runner.mli).

    Each half of a cell is measured by {!Tce_metrics.Harness.run} in a
    freshly built engine; nothing in the stack below it is shared or
    mutable across instances (the simulator is deterministic given the
    source and config), so where a cell runs — this process or a
    supervised worker — cannot change any simulated number. *)

module H = Tce_metrics.Harness
module W = Tce_workloads.Workload
module E = Tce_engine.Engine
module J = Tce_obs.Json
module Prof = Tce_prof.Profile

(* The pair-cell driver. With [profile] each half it simulates runs under
   a fresh profile; [row cell (off, p_off) (on, p_on)] makes a cell's row
   of its Record.cell and each half with the profile it ran under. *)
let matrix ~profile ~codec ~row ~argv (pairs : (E.config * W.t) list) : 'row Shard.cells =
  let arr = Array.of_list pairs in
  (* parsed on first use only: workers and in-process runs never schedule *)
  let cost = lazy (Store.baseline_cost_of_workload ()) in
  (* A half reads only its workload and its effective config, so the
     cells of one workload share equal halves: the first cell to need one
     simulates it and reports its host time, the others reuse it and
     report 0. A store-free workload's two halves are one (see
     Engine.effective_config), so a cell whose halves are equal reuses
     its off half as its on half. A workload's cells all run in one
     process, sharded or not. A workload with one cell keeps nothing. *)
  let shared =
    lazy
      (let cells = Hashtbl.create 64 in
       Array.iter (fun (_, (w : W.t)) -> Hashtbl.add cells w.W.name ()) arr;
       fun (w : W.t) -> List.compare_length_with (Hashtbl.find_all cells w.W.name) 1 > 0)
  in
  let stores = Hashtbl.create 16 in
  let stores (w : W.t) =
    match Hashtbl.find_opt stores w.W.name with
    | Some s -> s
    | None ->
      let s = E.stores (Tce_jit.Bc_compile.compile_source w.W.source) in
      Hashtbl.add stores w.W.name s;
      s
  in
  let halves = Hashtbl.create 16 in
  let half ~keep k config w =
    match Hashtbl.find_opt halves k with
    | Some (r, p) -> ({ r with H.mechanism = config.E.mechanism }, p, 0.0)
    | None ->
      let config = if profile then { config with E.prof = Prof.create () } else config in
      let t0 = Unix.gettimeofday () in
      let r = H.run ~config w in
      let wall = Unix.gettimeofday () -. t0 in
      if keep then Hashtbl.add halves k (r, config.E.prof);
      (r, config.E.prof, wall)
  in
  {
    Shard.codec;
    argv;
    count = Array.length arr;
    name = (fun i -> (snd arr.(i)).W.name);
    workload = (fun i -> (snd arr.(i)).W.name);
    cost = (fun i -> Lazy.force cost (snd arr.(i)));
    key = (fun i -> Cache.bench_key ~config:(fst arr.(i)) (snd arr.(i)));
    run =
      (fun i ->
        let config, w = arr.(i) in
        let key mechanism =
          Cache.bench_key
            ~config:(E.effective_config ~stores:(stores w) { config with E.mechanism })
            w
        in
        let k_off = key false and k_on = key true in
        let keep = Lazy.force shared w in
        let off, p_off, wall_off = half ~keep k_off { config with E.mechanism = false } w in
        let on, p_on, wall_on =
          if k_on = k_off then ({ off with H.mechanism = true }, p_off, 0.0)
          else half ~keep k_on { config with E.mechanism = true } w
        in
        H.check_agree w ~off:off.H.checksum ~on:on.H.checksum;
        row
          (Record.of_pair ~wall_off ~wall_on off on, Some (H.Figures.of_pair off on))
          (off, p_off) (on, p_on));
  }

let pair_cells ~argv pairs : Record.cell Shard.cells =
  matrix ~profile:false ~codec:Shard.cell_codec ~row:(fun cell _ _ -> cell) ~argv pairs

let roster ws = List.map (fun w -> (E.default_config, w)) ws
let names ws = List.map (fun (w : W.t) -> w.W.name) ws

let bench_cells (ws : W.t list) : Record.cell Shard.cells =
  pair_cells ~argv:("bench" :: names ws) (roster ws)

type profile = {
  pair : Tce_prof.Report.pair;
  folded_off : string;
  folded_on : string;
}

let ( let* ) = Result.bind

let profiled_codec =
  let fields = function J.Obj l -> l | _ -> [] in
  {
    Shard.encode =
      (fun (cell, p) ->
        let profile =
          fields (Tce_prof.Report.pair_to_json p.pair)
          @ [ ("folded_off", J.Str p.folded_off); ("folded_on", J.Str p.folded_on) ]
        in
        J.Obj (fields (Record.cell_to_json cell) @ [ ("profile", J.Obj profile) ]));
    decode =
      (fun j ->
        let* cell = Record.cell_of_json j in
        let* prof = J.field "profile" Option.some j in
        let* pair = Tce_prof.Report.pair_of_json prof in
        let* folded_off = J.field "folded_off" J.to_str prof in
        let* folded_on = J.field "folded_on" J.to_str prof in
        Ok (cell, { pair; folded_off; folded_on }));
    cache_form = (fun (cell, p) -> (Shard.cell_codec.cache_form cell, p));
  }

let profiled_bench_cells (ws : W.t list) : (Record.cell * profile) Shard.cells =
  let baseline_cpi = E.default_config.E.mach_cfg.Tce_machine.Config.baseline_cpi in
  (* a half's profile over its whole run, folded under [NAME;off|on] *)
  let side ((r : H.result), prof) =
    let program = r.H.workload.W.name and mechanism = r.H.mechanism in
    ( Prof.summarize prof ~program ~mechanism ~machine_cycles:r.H.whole_opt_cycles
        ~baseline_instrs:r.H.whole_baseline_instrs ~baseline_cpi,
      Prof.folded ~baseline_cpi prof ~root:(program ^ if mechanism then ";on" else ";off") )
  in
  let row cell off on =
    let s_off, folded_off = side off and s_on, folded_on = side on in
    let p_name = (fst cell).Record.name in
    (cell, { pair = { p_name; p_off = Some s_off; p_on = Some s_on }; folded_off; folded_on })
  in
  matrix ~profile:true ~codec:profiled_codec ~row
    ~argv:("bench" :: "--profile" :: names ws) (roster ws)

let run_pairs ?cache pairs : Record.cell list =
  let s =
    Shard.run ?cache ~journal_path:Store.bench_journal_path ~shards:1
      ~worker_args:[] (pair_cells ~argv:[] pairs)
  in
  List.map snd s.Shard.rows

let run_one ?cache (w : W.t) : Record.workload =
  fst (List.hd (run_pairs ?cache [ (E.default_config, w) ]))

let record ~shards ~cell run =
  let t0 = Unix.gettimeofday () in
  let s = run () in
  let rows = List.map snd s.Shard.rows in
  let cells = List.map cell rows in
  ( Store.make_run ~shards ~quarantined:s.Shard.quarantined
      ~resumed_rows:s.Shard.resumed ~cache_stats:s.Shard.cache_stats
      ~figures:(Record.figures_of_cells cells)
      ~host_wall_seconds:(Unix.gettimeofday () -. t0)
      (List.map fst cells),
    rows )

let run_suite ?supervise ?cache ?jobs ?on_row ?(shards = 1) (ws : W.t list) : Record.run =
  Shard.serial_jobs jobs;
  fst @@ record ~shards ~cell:Fun.id @@ fun () ->
  Shard.run ?supervise ~journal_path:Store.bench_journal_path ?cache
    ?on_row:(Option.map (fun f (w, _) -> f w) on_row)
    ~shards ~worker_args:[] (bench_cells ws)
