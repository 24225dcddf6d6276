(* Differential check for the checked-load configuration. *)
module E = Tce_engine.Engine
let () =
  let bad = ref 0 in
  List.iter
    (fun (w : Tce_workloads.Workload.t) ->
      let interp = Tce_metrics.Harness.reference w in
      let cl =
        (Tce_metrics.Harness.run
           ~config:{ E.default_config with E.mechanism = false; checked_load = true }
           w).Tce_metrics.Harness.observable
      in
      if interp <> cl then begin
        incr bad;
        Printf.printf "FAIL %s interp=%S checked-load=%S\n%!"
          w.Tce_workloads.Workload.name interp cl
      end)
    Tce_workloads.Workloads.all;
  Printf.printf "checked-load differential: %d failures\n" !bad;
  if !bad > 0 then exit 1
