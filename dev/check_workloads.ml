(* Dev tool: differential-check every workload across tiers and configs. *)
module H = Tce_metrics.Harness
let () =
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun (w : Tce_workloads.Workload.t) ->
      let name = w.Tce_workloads.Workload.name in
      match
        let interp = H.reference w in
        (* raises when the two measured sides disagree *)
        let off, on = H.run_pair w in
        (interp, off, on)
      with
      | interp, off, on
        when interp = off.H.observable && off.H.observable = on.H.observable ->
        incr ok;
        Printf.printf "OK   %-36s %s\n%!" name on.H.checksum
      | interp, off, on ->
        incr bad;
        Printf.printf "FAIL %-36s interp=%S off=%S on=%S\n%!" name interp
          off.H.observable on.H.observable
      | exception e ->
        incr bad;
        Printf.printf "ERR  %-36s %s\n%!" name (Printexc.to_string e))
    Tce_workloads.Workloads.all;
  Printf.printf "=== %d ok, %d bad ===\n" !ok !bad;
  if !bad > 0 then exit 1
