(* Self-test of the benchmark's own checks: a bad row must count as a
   failed operation, and a span set that does not reconcile with its wall
   clock must be rejected. *)

open Perfbench_lib
module Rec = Tce_runner.Record

let row name checksum : Rec.workload =
  {
    Rec.name;
    suite = "Octane";
    iterations = 10;
    checksum;
    cycles_off = 1000.0;
    cycles_on = 900.0;
    whole_cycles_off = 5000.0;
    whole_cycles_on = 4500.0;
    checks_off = 100;
    checks_on = 40;
    checks_by_kind = [];
    guards_off = 10;
    guards_on = 4;
    deopts_on = 0;
    cc_exceptions_on = 0;
    cc_accesses_on = 7;
    cc_hit_rate_on = 1.0;
    speedup_pct = 10.0;
    check_removal_pct = 60.0;
    wall_seconds = 0.0;
    wall_seconds_off = 0.0;
    wall_seconds_on = 0.0;
  }

let check name cond =
  if not cond then begin
    Printf.printf "FAIL %s\n" name;
    exit 1
  end
  else Printf.printf "ok   %s\n" name

let () =
  let baseline = [ row "a" "1"; row "b" "2" ] in
  check "clean rows pass" (Roster.mismatches ~baseline baseline = []);
  (* a row whose simulated result drifted, timing fields aside *)
  let rows = [ row "a" "1"; { (row "b" "2") with Rec.cycles_on = 901.0; wall_seconds = 3.0 } ] in
  let failed = List.length (Roster.mismatches ~baseline rows) in
  check "one bad row is one failure" (failed = 1);
  check "a failure lowers ok_pct" (Metrics.ok_pct ~attempted:2 ~failed < 100.0);
  check "an unknown workload fails" (Roster.mismatches ~baseline [ row "c" "3" ] <> []);
  let spans = [ ("engine.warmup", 700); ("engine.steady", 250) ] in
  check "spans reconcile with their remainder"
    (Span.reconcile ~max_share:0.1 ~wall_ns:1000 spans = Ok 50);
  check "spans past the wall clock are rejected"
    (Result.is_error (Span.reconcile ~max_share:0.1 ~wall_ns:900 spans));
  check "a remainder over the limit is rejected"
    (Result.is_error (Span.reconcile ~max_share:0.01 ~wall_ns:1000 spans));
  let recorded = Span.create () in
  let wall = Span.wall () in
  Span.interval wall (fun () -> Span.time recorded "x" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))));
  check "a recorded span reconciles"
    (Result.is_ok (Span.reconcile ~max_share:1.0 ~wall_ns:wall.Span.wall_ns (Span.totals recorded)));
  let slow = { Probe.samples = [ 2.0 *. Probe.nominal_s; 2.0 *. Probe.nominal_s ]; debt = 0.0 } in
  check "a host at half the probe's speed halves wall time" (Probe.rescale slow 3.0 = 1.5);
  let probe = Probe.create () in
  check "probing takes about its duty, at least one sample"
    (Probe.after probe 0.0 > 0.0 && List.length probe.Probe.samples = 1);
  check "quantiles interpolate"
    (Metrics.quantile [ 4.0; 1.0; 3.0; 2.0 ] 0.5 = 2.5
    && Metrics.quantile [ 1.0; 2.0; 3.0; 4.0; 5.0 ] 0.9 = 4.6)
