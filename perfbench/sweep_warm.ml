(** Workload [sweep-warm]: a 2×2 design-space sweep over a seeded draw of
    cheap workloads, served entirely from a private cell cache. Set-up runs
    the sweep cold; the measured phase repeats warm passes — the sweep,
    then its report, CSV and saved document — in which every cell is a
    cache hit and nothing is simulated. So the runner does all the work
    and the engine and machine none: the workload that must not move when
    the simulator gets faster, and whose cache reads complement the
    roster's cache writes. A cell fails when a warm pass misses the cache
    or returns a row that differs from the cold one, or when the default
    point no longer matches the committed baseline. *)

module R = Tce_runner
module Sw = Tce_runner.Sweep
module Rec = Tce_runner.Record
module W = Tce_workloads.Workload

let axes_string = "cc.entries=32,128 cl.size=4,7"

let axes =
  match Sw.parse_spec axes_string with Ok a -> a | Error e -> failwith e

(** The pool is the [pool] workloads cheapest by committed baseline
    cycles, cut into [draw] strata of neighbouring cost; a run sweeps one
    workload of each stratum, drawn by the seed, so every draw costs
    about the same. *)
let pool = 12
let draw = 6

let workloads ~seed =
  let cost = R.Store.baseline_cost_of_workload () in
  let by_cost =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> compare a b)
         (List.filter_map
            (fun (w : W.t) -> Option.map (fun c -> (c, w)) (cost w))
            Tce_workloads.Workloads.all))
  in
  let st = Random.State.make [| seed |] in
  let per = pool / draw in
  List.init draw (fun k -> List.nth by_cost ((k * per) + Random.State.int st per))

type env = {
  ws : W.t list;
  cache : R.Cache.t;
  cold : Sw.t;
  latest : string;  (** where each pass saves its sweep document *)
}

(** Set-up: the cold sweep into a fresh cache. Every cell must miss. *)
let setup ~seed ~fresh_dir =
  let ws = workloads ~seed in
  let dir = fresh_dir "sweep" in
  let cache = R.Cache.create ~dir:(Filename.concat dir "cache") () in
  let cold = Sw.run ~cache ~jobs:1 ~axes ws in
  if cold.Sw.cache_hits <> 0 || cold.Sw.cache_misses <> List.length cold.Sw.cells then
    failwith "sweep-warm: the set-up sweep was not cold";
  if not (List.mem Sw.default_point cold.Sw.points) then
    failwith "sweep-warm: the grid lacks the default point";
  { ws; cache; cold; latest = Filename.concat dir "SWEEP_latest.json" }

(** Why the cells of warm sweep [t] fail, one entry per failed cell. *)
let check env (t : Sw.t) =
  let misses = List.init t.Sw.cache_misses (fun _ -> "warm cell missed the cache") in
  let differ =
    if
      List.length t.Sw.cells = List.length env.cold.Sw.cells
      && List.for_all2
           (fun (p, a) (q, b) -> p = q && Rec.equal_deterministic a b)
           t.Sw.cells env.cold.Sw.cells
    then []
    else [ "warm rows differ from the cold sweep" ]
  in
  let baseline =
    match Sw.baseline_check t with
    | Ok _ -> []
    | Error e ->
      List.init (List.length env.ws) (fun _ -> "default point rejected: " ^ e)
  in
  misses @ differ @ baseline

(** One warm pass: the sweep, then its report, CSV and saved document. *)
let pass env =
  let t = Sw.run ~cache:env.cache ~jobs:1 ~axes env.ws in
  ignore (Sw.report t);
  ignore (Sw.to_csv t);
  ignore (Sw.save ~latest:env.latest ~dir:"" t);
  t

let cells env = List.length env.cold.Sw.cells

let run ~setup_s ~seed ~seconds ~fresh_dir : Metrics.t =
  let env = setup ~seed ~fresh_dir in
  let probe = Probe.create () in
  (* only the pass is timed; checking it and probing are the benchmark's
     own work *)
  let ps =
    Metrics.repeat ~seconds (fun () ->
        let secs, t = Metrics.timed (fun () -> pass env) in
        ignore (Probe.after probe secs);
        (secs, check env t))
  in
  Metrics.end_to_end ~probe:(Some probe)
    ~attempted:(cells env * List.length ps)
    ~errors:(List.concat_map (fun (_, (_, e)) -> e) ps)
    ~wall_s:(List.map (fun (_, (secs, _)) -> secs) ps)
    ~setup_s

(* --- the traced run --- *)

(** One warm pass from outside: key, lookup and decode per cell, then the
    provenance stamp, the reducers (report and CSV) and the save. *)
let traced_pass spans wall env =
  Span.interval wall (fun () ->
      let points, skipped = Sw.expand axes in
      let stats = R.Cache.stats env.cache in
      let h0 = stats.R.Cache.hits and m0 = stats.R.Cache.misses in
      let t0 = Unix.gettimeofday () in
      let cells =
        List.filter_map
          (fun (p, w) ->
            let config = Sw.config_of_point p in
            let key = Span.time spans "runner.cache_key" (fun () -> R.Cache.bench_key ~config w) in
            match Span.time spans "runner.cache_find" (fun () -> R.Cache.find env.cache ~key) with
            | None -> None
            | Some j -> (
              match Span.time spans "runner.row_decode" (fun () -> Rec.workload_of_json j) with
              | Ok row -> Some (p, row)
              | Error _ -> None))
          (Sw.matrix points env.ws)
      in
      let git_sha = Span.time spans "runner.git_sha" R.Store.git_sha in
      let t =
        {
          Sw.spec = Sw.axes_to_string axes;
          git_sha;
          created_utc = R.Store.timestamp_utc ();
          jobs = 1;
          shards = 1;
          host_wall_seconds = Unix.gettimeofday () -. t0;
          cache_hits = stats.R.Cache.hits - h0;
          cache_misses = stats.R.Cache.misses - m0;
          skipped_points = skipped;
          roster = List.map (fun (w : W.t) -> w.W.name) env.ws;
          points;
          cells;
          quarantined = [];
          resumed_rows = [];
        }
      in
      Span.time spans "runner.sweep_reduce" (fun () ->
          ignore (Sw.report t);
          ignore (Sw.to_csv t));
      Span.time spans "runner.sweep_save" (fun () ->
          ignore (Sw.save ~latest:env.latest ~dir:"" t));
      t)

let trace ~seed ~seconds ~fresh_dir ~max_share : Metrics.t =
  let env = setup ~seed ~fresh_dir in
  let spans = Span.create () and wall = Span.wall () in
  let stats = R.Cache.stats env.cache in
  let h0 = stats.R.Cache.hits and m0 = stats.R.Cache.misses
  and b0 = stats.R.Cache.bytes_read in
  (* untraced and traced passes alternate, so both see the same host and
     heap state *)
  let both =
    Metrics.repeat ~seconds (fun () ->
        let u_s, u = Metrics.timed (fun () -> pass env) in
        (u_s, check env u @ check env (traced_pass spans wall env)))
  in
  let passes = 2 * List.length both in
  let hits = stats.R.Cache.hits - h0 and misses = stats.R.Cache.misses - m0 in
  let unattributed = Span.reconcile_exn ~what:"sweep-warm" ~max_share wall spans in
  let n = List.length both in
  let per = float_of_int n in
  let untraced_s = List.fold_left (fun s (_, (u_s, _)) -> s +. u_s) 0.0 both in
  let errors = List.concat_map (fun (_, (_, e)) -> e) both in
  Metrics.make ~attempted:(cells env * passes) ~errors
    (Metrics.of_spans ~per:n spans
    @ [
        ("unattributed_s", Span.seconds_of_ns unattributed /. per);
        ("trace_overhead_pct",
         100.0 *. ((Span.seconds_of_ns wall.Span.wall_ns /. untraced_s) -. 1.0));
        ("runner.cache_hit_pct", 100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("runner.bytes_read", float_of_int (stats.R.Cache.bytes_read - b0) /. float_of_int passes);
      ]
    @ Metrics.op_percentiles (List.map (fun (_, (u_s, _)) -> 1000.0 *. u_s) both)
    @ Metrics.simulated
        (List.filter_map
           (fun (p, row) -> if p = Sw.default_point then Some row else None)
           env.cold.Sw.cells))
