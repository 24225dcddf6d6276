(** What one benchmark run reports: operations attempted and failed, and
    named metric values. run.py attaches the units from BENCHMARK.json and
    prints the final result line. *)

type t = {
  attempted : int;
  failed : int;
  errors : string list;  (** why operations failed, for stderr *)
  values : (string * float) list;
}

(** Linear-interpolation quantile of [xs] at [q] in [0, 1]. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(** [f ()] and the host seconds it took. *)
let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (Span.seconds_of_ns (Span.now_ns () - t0), r)

(** Median host seconds of [n] runs of this executable with [args], each
    a fresh process: set-up measured cold, as every run pays it. *)
let median_process_time n args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  median
    (List.init n (fun _ ->
         fst
           (timed (fun () ->
                let pid =
                  Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
                    Unix.stderr
                in
                match Tce_runner.Supervise.waitpid_restart [] pid with
                | _, Unix.WEXITED 0 -> ()
                | _ -> failwith "set-up process failed"))))

(** Run [f] at least [min_runs] times (default 1), and again while the
    next run is predicted to end within [seconds] of the first one's start:
    the host seconds of each run and its result. Results are kept, so they
    should be small. *)
let repeat ?(min_runs = 1) ~seconds f =
  let t0 = Span.now_ns () in
  let rec go n acc =
    let secs, r = timed f in
    let acc = (secs, r) :: acc in
    if n + 1 >= min_runs && Span.seconds_of_ns (Span.now_ns () - t0) +. secs > seconds
    then List.rev acc
    else go (n + 1) acc
  in
  go 0 []

(** A run's result: operations that failed are those [errors] names. *)
let make ~attempted ~errors values =
  { attempted; failed = min attempted (List.length errors); errors; values }

let ok_pct ~attempted ~failed =
  100.0 *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted)

(** The peak major-heap size of this process so far, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(** An untraced run's result: the end-to-end metrics every workload
    reports. [wall_s] holds the host seconds of each pass over the
    workload's operations. With [probe], sampled between the passes'
    operations, their median is reported at the probe's nominal host
    speed. *)
let end_to_end ~(probe : Probe.t option) ~attempted ~errors ~wall_s ~setup_s =
  let m = make ~attempted ~errors [] in
  let raw = median wall_s in
  let wall =
    match probe with
    | None -> raw
    | Some p ->
      Printf.eprintf
        "perfbench: median pass %.4f s as measured; probe %.2f ms over %d samples\n%!" raw
        (1000.0 *. Probe.mean p) (List.length p.Probe.samples);
      Probe.rescale p raw
  in
  {
    m with
    values =
      [
        ("wall_s", wall);
        ("setup_s", setup_s);
        ("ok_pct", ok_pct ~attempted ~failed:m.failed);
        ("peak_heap_mb", peak_heap_mb ());
      ];
  }

(** The median and 80th-percentile host time of one operation, from the
    host milliseconds of each. The 80th is the highest percentile with at
    least ten samples beyond it on every workload. *)
let op_percentiles op_ms =
  [ ("op_p50_ms", quantile op_ms 0.5); ("op_p80_ms", quantile op_ms 0.8) ]

(** The time and allocation of every span of [spans], divided by [per]
    (the number of passes the spans cover). *)
let of_spans ?(per = 1) spans =
  let d = float_of_int per in
  List.concat_map
    (fun name ->
      [
        (name ^ "_s", Span.seconds spans name /. d);
        (name ^ "_alloc_mw", Span.alloc_mw spans name /. d);
      ])
    (Span.names spans)

(** Share of checks the mechanism removed, summed over [rows], and the
    geometric-mean cycle improvement of mechanism on over off, both in
    percent. *)
let simulated (rows : Tce_runner.Record.workload list) =
  let module R = Tce_runner.Record in
  let off = List.fold_left (fun s r -> s + r.R.checks_off) 0 rows
  and on = List.fold_left (fun s r -> s + r.R.checks_on) 0 rows in
  let ratio =
    Tce_support.Stats.geomean
      (List.map (fun r -> r.R.cycles_off /. r.R.cycles_on) rows)
  in
  [
    ("sim.check_removal_pct", 100.0 *. float_of_int (off - on) /. float_of_int off);
    ("sim.speedup_pct", 100.0 *. (ratio -. 1.0));
  ]

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "metric value %f is not finite" x)

(** The line run.py reads: the last line of stdout. *)
let print (m : t) =
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) m.errors;
  let values =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v))
         m.values)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"values\":{%s}}\n%!"
    (m.failed = 0 && m.errors = [])
    m.attempted m.failed values
