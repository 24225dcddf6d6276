(** Workload [faults]: a seeded one-point ([cc-drop]) fault campaign over
    the 55 workloads through {!Tce_runner.Campaign.parent}, with two
    supervised worker processes of the repository's own [bench/main.exe].
    It is the only workload that runs the per-instruction executor, the
    armed fault injector and the supervisor (spawn, row streaming, journal
    fsync). A cell fails when it is [Wrong] (a wrong answer or a crash),
    quarantined, or missing.

    The traced run takes per-cell host time from outside: each worker's
    stdout passes through a forwarding pipe that stamps every row as it
    arrives. *)

module R = Tce_runner
module Camp = Tce_runner.Campaign
module W = Tce_workloads.Workload
module E = Tce_engine.Engine
module C = Tce_machine.Counters

let spec_string = "cc-drop"

let spec =
  match Tce_fault.Spec.parse spec_string with
  | Ok s -> s
  | Error e -> failwith e

let worker_exe = Filename.concat (Filename.concat "_build" "default") "bench/main.exe"
let shards = 2

type env = { ws : W.t list; campaign_seed : int }

(** Set-up: check the worker binary, decode the baseline cost table the
    supervisor scales its deadlines by, derive the campaign seed, and lay
    out the matrix. *)
let setup ~seed =
  if not (Sys.file_exists worker_exe) then failwith (worker_exe ^ ": worker binary missing");
  let ws = Tce_workloads.Workloads.all in
  ignore (Camp.matrix ~spec ws);
  ignore (R.Store.baseline_cost_of_workload () (List.hd ws));
  { ws; campaign_seed = Camp.default_seed + seed }

(* --- the row-stamping spawn --- *)

type tap = { mu : Mutex.t; mutable gaps_ms : float list; mutable threads : Thread.t list }

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(** {!Tce_runner.Supervise.default_spawn} with the worker's stdout routed
    through a pipe: a thread stamps each row line and forwards the bytes
    unchanged to the supervisor, closing its end when the worker's closes. *)
let stamping_spawn tap : R.Supervise.spawn =
 fun ~exe ~argv ~stdout ~stderr ->
  let r, w = Unix.pipe ~cloexec:true () in
  let out = Unix.dup ~cloexec:true stdout in
  let spawned = Span.now_ns () in
  match R.Supervise.default_spawn ~exe ~argv ~stdout:w ~stderr with
  | exception e ->
    List.iter Unix.close [ r; w; out ];
    raise e
  | pid ->
    Unix.close w;
    let forward () =
      let buf = Bytes.create 65536 in
      let last = ref spawned in
      let rec loop () =
        match R.Supervise.read_restart r buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          let now = Span.now_ns () in
          Bytes.iter
            (fun ch ->
              if ch = '\n' then begin
                Mutex.protect tap.mu (fun () ->
                    tap.gaps_ms <- (float_of_int (now - !last) /. 1e6) :: tap.gaps_ms);
                last := now
              end)
            (Bytes.sub buf 0 n);
          write_all out buf 0 n;
          loop ()
      in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ r; out ])
        (fun () -> try loop () with Unix.Unix_error _ -> ())
    in
    let th = Thread.create forward () in
    Mutex.protect tap.mu (fun () -> tap.threads <- th :: tap.threads);
    pid

type pass = {
  campaign : Camp.t option;
  gaps_ms : float list;  (** host time per cell, as its row arrived *)
  journal_rows : int;
  errors : string list;  (** one per failed cell *)
}

let journal_rows path =
  match R.Store.journal_lines path with Ok ls -> List.length ls | Error _ -> 0

let cells env = List.length (Camp.matrix ~spec env.ws)

(** One sharded campaign with its journal and shard logs in [dir]. With
    [stamp], each cell's host time is stamped as its row arrives. *)
let pass ?(stamp = false) env ~dir =
  let tap = { mu = Mutex.create (); gaps_ms = []; threads = [] } in
  let spawn = if stamp then stamping_spawn tap else R.Supervise.default_spawn in
  let journal_path = Filename.concat dir "faults.jsonl" in
  let cs = string_of_int env.campaign_seed in
  let result =
    try
      Ok
        (Camp.parent ~exe:worker_exe ~spawn
           ~log_dir:(Filename.concat dir "logs") ~journal_path ~spec
           ~seed:env.campaign_seed ~shards
           ~worker_args:[ "--fault-seed"; cs; "--fault-spec"; spec_string ]
           env.ws)
    with e -> Error (Printexc.to_string e)
  in
  List.iter Thread.join tap.threads;
  let n = cells env in
  let errors =
    match result with
    | Error e -> List.init n (fun _ -> "campaign raised: " ^ e)
    | Ok c ->
      List.map
        (fun (cell : Camp.cell) ->
          Printf.sprintf "%s × %s (seed %d): %s" cell.Camp.workload cell.Camp.point
            cell.Camp.seed cell.Camp.detail)
        (Camp.wrong c)
      @ List.map
          (fun (q : R.Supervise.quarantined) -> "quarantined: " ^ q.R.Supervise.q_name)
          c.Camp.quarantined
      @ List.init
          (n - List.length c.Camp.cells - List.length c.Camp.quarantined)
          (fun _ -> "cell missing")
  in
  {
    campaign = Result.to_option result;
    gaps_ms = tap.gaps_ms;
    journal_rows = journal_rows journal_path;
    errors;
  }

let run ~setup_s ~seed ~seconds ~fresh_dir : Metrics.t =
  let env = setup ~seed in
  (* The parent waits for the slower of two workers on a two-core host, so
     one campaign's wall time carries the host's speed swings twice over;
     the median of two campaigns damps them. The workers keep both cores
     busy, so the host-speed probe runs beside them and counts its CPU
     time; probed between campaigns, it tracked the host worse than no
     probe at all. *)
  let probe = Probe.create () in
  let ps =
    Metrics.repeat ~min_runs:2 ~seconds (fun () ->
        let secs, p =
          Probe.during probe (fun () ->
              Metrics.timed (fun () -> pass env ~dir:(fresh_dir "faults")))
        in
        (secs, p.errors))
  in
  Metrics.end_to_end ~probe:(Some probe)
    ~attempted:(cells env * List.length ps)
    ~errors:(List.concat_map (fun (_, (_, e)) -> e) ps)
    ~wall_s:(List.map (fun (_, (secs, _)) -> secs) ps)
    ~setup_s

(* --- the traced run --- *)

(** {!Tce_runner.Campaign.observe} from outside, also returning the
    simulated instructions the run executed. *)
let observe ~config (w : W.t) =
  let t = E.of_source ~config w.W.source in
  E.set_measuring t true;
  ignore (E.run_main t);
  let buf = Buffer.create 128 in
  for _ = 1 to w.W.iterations do
    let v = E.call_by_name t "bench" [||] in
    Buffer.add_string buf (Tce_vm.Heap.to_display_string t.E.heap v);
    Buffer.add_char buf '\n'
  done;
  let c = t.E.counters in
  ( {
      Camp.observable =
        E.output t ^ "\x00" ^ Digest.to_hex (Digest.string (Buffer.contents buf));
      cycles = float_of_int (E.opt_cycles t) +. E.baseline_cycles t;
      deopts = c.C.deopts;
      cc_exceptions = c.C.cc_exception_deopts;
    },
    C.total_instrs c )

type traced = {
  mutable templated_instrs : int;
  mutable per_instr_instrs : int;
  mutable fires : int;
}

(** The campaign serially in-process, interleaved per workload with the
    untraced in-process driver so both see the same host state: first
    {!Tce_runner.Campaign.run} on the workload alone, then the traced
    replay, one span per observation — the two templated ones (checks-on
    reference, clean mechanism on) and the one with the injector armed.
    The replay classifies its cell as the campaign does; it must match the
    untraced cell, and that the sharded campaign's. Returns the untraced
    host seconds and one error per failed cell. *)
let traced_campaign spans wall counts env (sharded : Camp.cell list) =
  let rule = List.hd spec in
  let point = Tce_fault.Point.name rule.Tce_fault.Spec.point in
  let untraced_s = ref 0.0 in
  let errors =
    List.concat_map
      (fun (w : W.t) ->
        let secs, untraced =
          Metrics.timed (fun () -> Camp.run ~spec ~seed:env.campaign_seed ~jobs:1 [ w ])
        in
        untraced_s := !untraced_s +. secs;
        let cell =
          Span.interval wall (fun () ->
              let (reference, i1), (clean, i2) =
                Span.time spans "campaign.prep" (fun () ->
                    ( observe ~config:{ E.default_config with E.mechanism = false } w,
                      observe ~config:{ E.default_config with E.mechanism = true } w ))
              in
              let seed =
                Camp.cell_seed ~campaign_seed:env.campaign_seed ~workload:w.W.name ~point
              in
              let inj = Tce_fault.Injector.create ~seed [ rule ] in
              let armed, i3 =
                Span.time spans "machine.per_instr" (fun () ->
                    observe ~config:{ E.default_config with E.mechanism = true; fault = inj } w)
              in
              counts.templated_instrs <- counts.templated_instrs + i1 + i2;
              counts.per_instr_instrs <- counts.per_instr_instrs + i3;
              let fires = Tce_fault.Injector.total_fires inj in
              counts.fires <- counts.fires + fires;
              let dd = armed.Camp.deopts - clean.Camp.deopts in
              let cd = armed.Camp.cycles -. clean.Camp.cycles in
              let outcome =
                if fires = 0 then Camp.Not_exercised
                else if armed.Camp.observable <> reference.Camp.observable then Camp.Wrong
                else if Tce_fault.Injector.detections inj > 0 then Camp.Detected_recovered
                else if
                  dd <> 0 || armed.Camp.cc_exceptions <> clean.Camp.cc_exceptions || cd <> 0.0
                then Camp.Degraded
                else Camp.Masked
              in
              (fires, dd, cd, outcome))
        in
        let same (c : Camp.cell) =
          (c.Camp.fires, c.Camp.deopts_delta, c.Camp.cycles_delta, c.Camp.outcome) = cell
        in
        let of_sharded =
          List.filter (fun (c : Camp.cell) -> c.Camp.workload = w.W.name) sharded
        in
        match untraced.Camp.cells with
        | [ c ] when same c && of_sharded = [ c ] -> []
        | _ -> [ w.W.name ^ ": traced, in-process and sharded cells differ" ])
      env.ws
  in
  (!untraced_s, errors)

let trace ~seed ~fresh_dir ~max_share : Metrics.t =
  let env = setup ~seed in
  let sharded_s, sharded =
    Metrics.timed (fun () -> pass ~stamp:true env ~dir:(fresh_dir "faults"))
  in
  let cells_of = match sharded.campaign with Some c -> c.Camp.cells | None -> [] in
  let spans = Span.create () and wall = Span.wall () in
  let counts = { templated_instrs = 0; per_instr_instrs = 0; fires = 0 } in
  let serial_s, traced_errors = traced_campaign spans wall counts env cells_of in
  let unattributed = Span.reconcile_exn ~what:"faults" ~max_share wall spans in
  let traced_s = Span.seconds_of_ns wall.Span.wall_ns in
  Metrics.make ~attempted:(cells env) ~errors:(sharded.errors @ traced_errors)
    (Metrics.of_spans spans
    @ [
        ("unattributed_s", Span.seconds_of_ns unattributed);
        ("trace_overhead_pct", 100.0 *. ((traced_s /. serial_s) -. 1.0));
        ("machine.templated_mips",
         float_of_int counts.templated_instrs /. Span.seconds spans "campaign.prep" /. 1e6);
        ("machine.per_instr_mips",
         float_of_int counts.per_instr_instrs /. Span.seconds spans "machine.per_instr" /. 1e6);
        ("fault.fires", float_of_int counts.fires);
        ("supervise.overhead_s", sharded_s -. (serial_s /. float_of_int shards));
        ("supervise.quarantined",
         float_of_int
           (match sharded.campaign with Some c -> List.length c.Camp.quarantined | None -> 0));
        ("runner.journal_rows", float_of_int sharded.journal_rows);
      ]
    @ Metrics.op_percentiles sharded.gaps_ms)
