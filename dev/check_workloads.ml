(* Dev tool: differential-check every workload across tiers and configs. *)
let () =
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun (w : Tce_workloads.Workload.t) ->
      let name = w.Tce_workloads.Workload.name in
      match
        let interp = Tce_metrics.Harness.interp_checksum w in
        (* raises when the two measured sides disagree *)
        let off, on = Tce_metrics.Harness.run_pair w in
        (interp, off.Tce_metrics.Harness.checksum, on.Tce_metrics.Harness.checksum)
      with
      | interp, off, on when interp = off && off = on ->
        incr ok;
        Printf.printf "OK   %-36s %s\n%!" name interp
      | interp, off, on ->
        incr bad;
        Printf.printf "FAIL %-36s interp=%s off=%s on=%s\n%!" name interp off on
      | exception e ->
        incr bad;
        Printf.printf "ERR  %-36s %s\n%!" name (Printexc.to_string e))
    Tce_workloads.Workloads.all;
  Printf.printf "=== %d ok, %d bad ===\n" !ok !bad;
  if !bad > 0 then exit 1
