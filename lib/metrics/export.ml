(** JSON export of an engine's counters: the versioned
    {!Tce_obs.Export} document of kind ["run-stats"] that
    [tcejs run --metrics-json] writes for arbitrary programs. *)

module J = Tce_obs.Json
module E = Tce_engine.Engine
module Counters = Tce_machine.Counters

(** Per-category instruction counts as an object keyed by category name. *)
let by_cat_json (a : int array) : J.t =
  J.Obj
    (List.init (Array.length a) (fun i ->
         (Tce_jit.Categories.name (Tce_jit.Categories.of_index i), J.Int a.(i))))

(** Live engine counters (for [tcejs --metrics-json] on arbitrary
    programs, where no {!Harness.result} exists). *)
let engine_json (t : E.t) : J.t =
  let c = t.E.counters in
  let hs = t.E.heap.Tce_vm.Heap.stats in
  J.Obj
    [
      ("mechanism", J.Bool t.E.cfg.E.mechanism);
      ("opt_instrs", J.Int (Counters.opt_instrs c));
      ("by_cat", by_cat_json c.Counters.by_cat);
      ("baseline_instrs", J.Int c.Counters.baseline_instrs);
      ("opt_cycles", J.Int (E.opt_cycles t));
      ("baseline_cycles", J.Float (E.baseline_cycles t));
      ("guards_obj_load", J.Int c.Counters.guards_obj_load);
      ("deopts", J.Int c.Counters.deopts);
      ("cc_exceptions", J.Int c.Counters.cc_exception_deopts);
      ("tierups", J.Int c.Counters.tierups);
      ("cc_accesses", J.Int t.E.cc.Tce_core.Class_cache.stats.accesses);
      ("cc_hit_rate", J.Float (Tce_core.Class_cache.hit_rate t.E.cc));
      ( "hidden_classes",
        J.Int (Tce_vm.Hidden_class.Registry.class_count t.E.heap.Tce_vm.Heap.reg) );
      ("heap_object_bytes", J.Int hs.Tce_vm.Heap.object_bytes);
      ("objects_allocated", J.Int hs.Tce_vm.Heap.objects_allocated);
    ]

let engine_document (t : E.t) : J.t =
  Tce_obs.Export.document ~kind:"run-stats" (engine_json t)
