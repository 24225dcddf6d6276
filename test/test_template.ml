(* Tests for superinstruction-template execution and roster sharding:
   (a) exhaustive block-splitting coverage: one sample of every LIR
       constructor, classified by a wildcard-free match (so adding a
       constructor breaks this test at compile time), laid out and checked
       against the fusion invariants (lib/machine/README.md);
   (b) layout rejections: the streams the fused executor must refuse
       (no terminator at the end, fall-through off the end, branch target
       or register operand out of range, empty stream), each with the
       text that names the failed rule;
   (c) every block the spot workloads compile has a consistent en-bloc
       summary (bit-identity of those workloads against the committed
       baseline is test_fastpath's spot check);
   (d) profiled runs execute on templates too, and the cycle-attribution
       profiler still reconciles exactly (summarize fails the run
       otherwise);
   (e) shard-merge determinism: row envelopes merged in any completion
       order produce the identical run record, and malformed merges fail
       loudly;
   (f) the threaded executor: a long hand-built loop runs in constant
       stack, and the block counts it defers are folded into the counters
       exactly at every exit (return, deopt, an exception escaping a
       nested call). *)

open Tce_runner
module Lir = Tce_jit.Lir
module Predecode = Tce_machine.Predecode
module Template = Tce_machine.Template
module W = Tce_workloads.Workload

(* --- (a) exhaustive constructor coverage --- *)

(* The block-splitting contract, restated per constructor with no wildcard:
   the compiler forces this test to grow with the instruction set. *)
let expected_terminator : Lir.op -> bool = function
  | Lir.AluOv _ | Lir.CheckedLoad _ | Lir.Branch _ | Lir.FBranch _
  | Lir.Jmp _ | Lir.CallFn _ | Lir.CallRt _ | Lir.CallRtChecked _
  | Lir.Ret _ | Lir.Deopt _ | Lir.StoreClassCache _
  | Lir.StoreClassCacheArray _ ->
    true
  | Lir.MovImm _ | Lir.Mov _ | Lir.Alu _ | Lir.Alu32 _ | Lir.Load _
  | Lir.LoadIdx _ | Lir.Store _ | Lir.StoreIdx _ | Lir.FMov _
  | Lir.FMovImm _ | Lir.FLoad _ | Lir.FLoadIdx _ | Lir.FStore _
  | Lir.FStoreIdx _ | Lir.FAdd _ | Lir.FSub _ | Lir.FMul _ | Lir.FDiv _
  | Lir.FSqrt _ | Lir.FNeg _ | Lir.FAbs _ | Lir.CvtIF _ | Lir.TruncFI _
  | Lir.MovClassID _ | Lir.MovClassIDArray _ | Lir.Profile _
  | Lir.ProfileStore _ ->
    false

(* Only [Ret], [Deopt] and [Jmp] never continue at pc+1. *)
let expected_falls_through : Lir.op -> bool = function
  | Lir.Ret _ | Lir.Deopt _ | Lir.Jmp _ -> false
  | _ -> true

(* One sample per LIR constructor, register operands within [0, 8). Branch
   labels are patched by the harness to point at the stream's final Ret. *)
let samples : (string * Lir.op) list =
  [
    ("MovImm", Lir.MovImm (0, 7));
    ("Mov", Lir.Mov (0, 1));
    ("Alu", Lir.Alu (Lir.Add, 0, 1, Lir.Reg 2));
    ("Alu32", Lir.Alu32 (Lir.Xor, 0, 1, Lir.Imm 3));
    ("AluOv", Lir.AluOv (Lir.Add, 0, 1, Lir.Reg 2, -1));
    ("Load", Lir.Load (0, 1, 8));
    ("CheckedLoad", Lir.CheckedLoad (0, 1, 8, 42, 0));
    ("LoadIdx", Lir.LoadIdx (0, 1, 2, 8));
    ("Store", Lir.Store (0, 8, Lir.Reg 1));
    ("StoreIdx", Lir.StoreIdx (0, 1, 8, Lir.Imm 5));
    ("FMov", Lir.FMov (0, 1));
    ("FMovImm", Lir.FMovImm (0, 2.5));
    ("FLoad", Lir.FLoad (0, 1, 8));
    ("FLoadIdx", Lir.FLoadIdx (0, 1, 2, 8));
    ("FStore", Lir.FStore (0, 8, 1));
    ("FStoreIdx", Lir.FStoreIdx (0, 1, 8, 2));
    ("FAdd", Lir.FAdd (0, 1, 2));
    ("FSub", Lir.FSub (0, 1, 2));
    ("FMul", Lir.FMul (0, 1, 2));
    ("FDiv", Lir.FDiv (0, 1, 2));
    ("FSqrt", Lir.FSqrt (0, 1));
    ("FNeg", Lir.FNeg (0, 1));
    ("FAbs", Lir.FAbs (0, 1));
    ("CvtIF", Lir.CvtIF (0, 1));
    ("TruncFI", Lir.TruncFI (0, 1));
    ("Branch", Lir.Branch (Lir.Eq, 0, Lir.Imm 0, -1));
    ("FBranch", Lir.FBranch (Lir.FLt, 0, 1, -1));
    ("Jmp", Lir.Jmp (-1));
    ("CallFn", Lir.CallFn (0, [| 1 |], 2, 0));
    ("CallRt", Lir.CallRt (Lir.Rt_box_double, [||], [| 0 |], Some 1, None));
    ("CallRtChecked", Lir.CallRtChecked (Lir.Rt_generic_get_elem, [| 1; 2 |], Some 3, 0));
    ("Ret", Lir.Ret 0);
    ("Deopt", Lir.Deopt 0);
    ("MovClassID", Lir.MovClassID 0);
    ("MovClassIDArray", Lir.MovClassIDArray (1, 0));
    ("StoreClassCache", Lir.StoreClassCache (1, 0, Lir.Reg 2, 0));
    ("StoreClassCacheArray", Lir.StoreClassCacheArray (1, 1, 2, 0, Lir.Imm 5, 0));
    ("Profile", Lir.Profile (1, 0, 0));
    ("ProfileStore", Lir.ProfileStore (1, 0, 0, Lir.Ps_reg 2));
  ]

let mk_func ?(n_regs = 8) ?(n_fregs = 8) code =
  {
    Lir.fn_id = 0;
    opt_id = 0;
    name = "template-test";
    code = Array.of_list (List.map (Lir.inst Tce_jit.Categories.C_other) code);
    deopts = [||];
    reprs = [||];
    n_regs;
    n_fregs;
    code_addr = 0x5000_0000;
    spec_deps = [];
    invalidated = false;
    deopt_hits = 0;
  }

(* Patch [-1] placeholder labels to [tgt]. *)
let patch tgt (op : Lir.op) : Lir.op =
  match op with
  | Lir.AluOv (a, d, s, o, l) when l = -1 -> Lir.AluOv (a, d, s, o, tgt)
  | Lir.Branch (c, r, o, l) when l = -1 -> Lir.Branch (c, r, o, tgt)
  | Lir.FBranch (c, a, b, l) when l = -1 -> Lir.FBranch (c, a, b, tgt)
  | Lir.Jmp l when l = -1 -> Lir.Jmp tgt
  | op -> op

(* Applying the sparse pairs to zeroed counters gives the dense summary. *)
let check_sparse name (s : Template.summary) =
  let c = Tce_machine.Counters.create () in
  Template.apply c s ~times:1;
  let module C = Tce_machine.Counters in
  Alcotest.(check (list int)) (name ^ ": sparse pairs = dense summary")
    (Array.to_list s.Template.s_by_cat
    @ Array.to_list s.Template.s_by_check
    @ Template.[ s.s_guards; s.s_loads; s.s_stores; s.s_branches; s.s_fp ])
    (Array.to_list c.C.by_cat
    @ Array.to_list c.C.by_check_kind
    @ [ c.C.guards_obj_load; c.C.opt_loads; c.C.opt_stores; c.C.opt_branches;
        c.C.opt_fp ])

let check_invariants name (pf : Predecode.func) (t : Template.t) =
  let n = Array.length pf.Predecode.ops in
  let blocks = t.Template.blocks in
  (* blocks partition [0, n) in order *)
  let covered =
    Array.fold_left
      (fun next (b : Template.block) ->
        Alcotest.(check int) (name ^ ": blocks are contiguous") next
          b.Template.b_start;
        Alcotest.(check bool) (name ^ ": block indexed at its leader") true
          (t.Template.block_of_pc.(b.Template.b_start) >= 0);
        next + b.Template.b_len)
      0 blocks
  in
  Alcotest.(check int) (name ^ ": blocks cover the stream") n covered;
  Array.iter
    (fun (b : Template.block) ->
      (* only the last instruction may be a terminator, and it is one
         exactly when the block says so *)
      for pc = b.Template.b_start to b.Template.b_start + b.Template.b_len - 2
      do
        Alcotest.(check bool)
          (Printf.sprintf "%s: pc %d is fused mid-block" name pc)
          false
          (Template.is_terminator pf.Predecode.ops.(pc))
      done;
      let last = b.Template.b_start + b.Template.b_len - 1 in
      Alcotest.(check bool) (name ^ ": b_terminated matches the last op")
        b.Template.b_terminated
        (Template.is_terminator pf.Predecode.ops.(last));
      (* every static successor is a block leader *)
      List.iter
        (fun tgt ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: branch target %d is a leader" name tgt)
            true
            (t.Template.block_of_pc.(tgt) >= 0))
        (Template.targets pf.Predecode.ops.(last));
      if b.Template.b_terminated && Template.falls_through pf.Predecode.ops.(last)
         && last + 1 < n
      then
        Alcotest.(check bool) (name ^ ": fall-through lands on a leader") true
          (t.Template.block_of_pc.(last + 1) >= 0);
      (* en-bloc summary = per-instruction summaries added up *)
      let whole =
        Template.summarize pf ~start:b.Template.b_start ~len:b.Template.b_len
      in
      let step =
        List.init b.Template.b_len (fun i ->
            Template.summarize pf ~start:(b.Template.b_start + i) ~len:1)
      in
      let add f = List.fold_left (fun a s -> a + f s) 0 step in
      Alcotest.(check (list int)) (name ^ ": summary is additive per category")
        (Array.to_list whole.Template.s_by_cat)
        (List.fold_left
           (fun acc (s : Template.summary) ->
             List.map2 ( + ) acc (Array.to_list s.Template.s_by_cat))
           (List.map (fun _ -> 0) (Array.to_list whole.Template.s_by_cat))
           step);
      Alcotest.(check int) (name ^ ": guards add up") whole.Template.s_guards
        (add (fun s -> s.Template.s_guards));
      Alcotest.(check int) (name ^ ": loads add up") whole.Template.s_loads
        (add (fun s -> s.Template.s_loads));
      Alcotest.(check int) (name ^ ": stores add up") whole.Template.s_stores
        (add (fun s -> s.Template.s_stores));
      Alcotest.(check int) (name ^ ": branches add up")
        whole.Template.s_branches
        (add (fun s -> s.Template.s_branches));
      check_sparse name whole)
    blocks

let test_every_constructor () =
  Alcotest.(check int) "one sample per LIR constructor" 39
    (List.length samples);
  List.iter
    (fun (name, op) ->
      let term = expected_terminator op in
      let falls = expected_falls_through op in
      let code =
        if not falls then [ patch 0 op ]
        else [ patch 2 op; Lir.MovImm (0, 1); Lir.Ret 0 ]
      in
      let pf = Predecode.decode (mk_func code) in
      Alcotest.(check bool) (name ^ ": is_terminator") term
        (Template.is_terminator pf.Predecode.ops.(0));
      Alcotest.(check bool) (name ^ ": falls_through") falls
        (Template.falls_through pf.Predecode.ops.(0));
      match Template.layout pf with
      | Error e ->
        Alcotest.failf "%s: layout rejected a well-formed stream: %s" name e
      | Ok t ->
        check_invariants name pf t;
        if falls then
          (* a terminator opens a leader at pc 1: its block is a singleton;
             a fusible op is folded into one straight-line block *)
          Alcotest.(check int)
            (name ^ ": first block length")
            (if term then 1 else 3)
            t.Template.blocks.(0).Template.b_len)
    samples

let test_pseudo_ops_transparent () =
  (* measurement pseudo-ops contribute nothing to the en-bloc summary *)
  List.iter
    (fun op ->
      let pf = Predecode.decode (mk_func [ op; Lir.Ret 0 ]) in
      let s = Template.summarize pf ~start:0 ~len:1 in
      Alcotest.(check int) "pseudo-op adds no dynamic instruction" 0
        (Array.fold_left ( + ) 0 s.Template.s_by_cat))
    [
      Lir.Profile (1, 0, 0);
      Lir.ProfileStore (1, 0, 0, Lir.Ps_reg 2);
      Lir.ProfileStore (1, 0, 0, Lir.Ps_classid 7);
    ]

let test_layout_rejections () =
  let reject name code ~n_regs ~n_fregs ~reason =
    match Template.layout (Predecode.decode (mk_func ~n_regs ~n_fregs code)) with
    | Error e -> Alcotest.(check string) (name ^ ": names the rule") reason e
    | Ok _ -> Alcotest.failf "%s: layout accepted a stream it must reject" name
  in
  reject "no terminator at the end"
    [ Lir.MovImm (0, 1); Lir.MovImm (1, 2) ]
    ~n_regs:8 ~n_fregs:1 ~reason:"no terminator at the end (pc 1)";
  reject "fall-through terminator runs off the end"
    [ Lir.Branch (Lir.Eq, 0, Lir.Imm 0, 0) ]
    ~n_regs:8 ~n_fregs:1 ~reason:"fall-through terminator at the end (pc 0)";
  reject "branch target out of range"
    [ Lir.MovImm (0, 1); Lir.MovImm (1, 2); Lir.Jmp 9 ]
    ~n_regs:8 ~n_fregs:1 ~reason:"branch target 9 out of range at pc 2";
  reject "int register out of range"
    [ Lir.Mov (0, 8); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1 ~reason:"register r8 out of range at pc 0";
  reject "float register out of range"
    [ Lir.MovImm (0, 1); Lir.FMov (0, 7); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:2 ~reason:"float register f7 out of range at pc 1";
  reject "classid-array index out of range"
    [ Lir.MovClassIDArray (4, 0); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1 ~reason:"classid-array index 4 out of range at pc 0";
  reject "empty stream" [] ~n_regs:8 ~n_fregs:1 ~reason:"empty stream"

(* --- (c) en-bloc summaries on real workloads --- *)

let spot_names =
  [ "richards"; "deltablue"; "crypto-md5"; "splay"; "json-stringify-tinderbox" ]

let workload name =
  match Tce_workloads.Workloads.by_name name with
  | Some w -> w
  | None -> Alcotest.failf "workload %s missing from the registry" name

(* Every block of every stream the spot workloads compile: its sparse
   pairs add up to its dense summary. *)
let test_sparse_summary_on_workloads () =
  List.iter
    (fun name ->
      let w = workload name in
      let e = Tce_engine.Engine.of_source w.W.source in
      ignore (Tce_engine.Engine.run_main e);
      for _ = 1 to w.W.iterations do
        ignore (Tce_engine.Engine.call_by_name e "bench" [||])
      done;
      let blocks = ref 0 in
      Hashtbl.iter
        (fun _ pf ->
          match Template.layout pf with
          | Error e -> Alcotest.failf "%s: installed stream rejected: %s" name e
          | Ok t ->
            Array.iter
              (fun (b : Template.block) ->
                incr blocks;
                check_sparse name b.Template.b_sum)
              t.Template.blocks)
        e.Tce_engine.Engine.mach.Tce_machine.Machine.pre_cache;
      Alcotest.(check bool) (name ^ ": compiled blocks were checked") true
        (!blocks > 0))
    spot_names

(* --- (d) profiled runs on templates --- *)

(* A profiled richards pair, each side on its own engine and profile: every
   stream the machine installed ran on a compiled template, and summarize
   raises unless every simulated cycle and baseline instruction lands in
   exactly one (function, pc, cost) cell. *)
let test_profile_reconciles_with_templates () =
  let w = workload "richards" in
  List.iter
    (fun mechanism ->
      let side = if mechanism then "on" else "off" in
      let prof = Tce_prof.Profile.create () in
      let config =
        { Tce_engine.Engine.default_config with mechanism; prof }
      in
      let e = Tce_engine.Engine.of_source ~config w.W.source in
      Tce_engine.Engine.set_measuring e true;
      ignore (Tce_engine.Engine.run_main e);
      for _ = 1 to w.W.iterations do
        ignore (Tce_engine.Engine.call_by_name e "bench" [||])
      done;
      let m = e.Tce_engine.Engine.mach in
      let installed = m.Tce_machine.Machine.pre_cache in
      Alcotest.(check bool) (side ^ ": streams were installed") true
        (Hashtbl.length installed > 0);
      Hashtbl.iter
        (fun opt_id pf ->
          match Hashtbl.find_opt m.Tce_machine.Machine.tpl_cache opt_id with
          | Some (pf', Some _) when pf' == pf -> ()
          | _ -> Alcotest.failf "%s: opt_id %d has no template" side opt_id)
        installed;
      ignore
        (Tce_prof.Profile.summarize prof ~program:"richards" ~mechanism
           ~machine_cycles:(Tce_engine.Engine.opt_cycles e)
           ~baseline_instrs:
             e.Tce_engine.Engine.counters.Tce_machine.Counters.baseline_instrs
           ~baseline_cpi:
             config.Tce_engine.Engine.mach_cfg.Tce_machine.Config.baseline_cpi
           ()))
    [ false; true ]

(* --- (e) shard-merge determinism --- *)

let test_merge_rows_order_independent () =
  let rows = [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ] in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) l)))
        l
  in
  List.iter
    (fun perm ->
      match Shard.merge_rows ~what:"row" ~expected:4 perm with
      | Ok merged ->
        Alcotest.(check (list string)) "any completion order, same merge"
          [ "a"; "b"; "c"; "d" ] merged
      | Error e -> Alcotest.failf "merge failed: %s" e)
    (permutations rows)

let test_merge_rows_failures () =
  let fails what rows ~expected =
    match Shard.merge_rows ~what ~expected rows with
    | Ok _ -> Alcotest.failf "%s: merge must fail" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": error names the row kind") true
        (Astring.String.is_infix ~affix:what e)
  in
  fails "missing-row" [ (0, "a"); (2, "c") ] ~expected:3;
  fails "dup-row" [ (0, "a"); (0, "b") ] ~expected:2;
  fails "range-row" [ (5, "a") ] ~expected:2

(* Row envelopes + merge on real records, figure inputs included:
   merging permuted completion orders yields the identical normalized
   run. *)
let test_merged_record_deterministic () =
  let ws = List.map workload [ "richards"; "deltablue"; "crypto-md5" ] in
  let rows = List.mapi (fun i _ -> (i, (Runner.bench_cells ws).Shard.run i)) ws in
  let through_wire order =
    let rows' =
      List.map
        (fun (i, r) ->
          match
            Result.bind
              (Tce_obs.Json.of_string
                 (Tce_obs.Json.to_string
                    (Shard.row_to_json Shard.cell_codec ~index:i r)))
              (Shard.row_of_json Shard.cell_codec)
          with
          | Ok row -> row
          | Error e -> Alcotest.failf "row round-trip: %s" e)
        order
    in
    match Shard.merge_rows ~what:"bench" ~expected:(List.length ws) rows' with
    | Error e -> Alcotest.failf "merge: %s" e
    | Ok merged ->
      Record.normalize_run
        (Store.make_run ~shards:2 ~host_wall_seconds:1.5
           ~figures:(Record.figures_of_cells merged)
           (List.map fst merged))
  in
  let a = through_wire rows
  and b = through_wire (List.rev rows) in
  Alcotest.(check int) "every row kept its figure inputs" (List.length ws)
    (List.length a.Record.figures);
  Alcotest.(check bool) "permuted completion order, identical record" true
    (a = b);
  Alcotest.(check string) "normalized runs serialize identically"
    (Tce_obs.Json.to_string (Record.run_to_json a))
    (Tce_obs.Json.to_string (Record.run_to_json b))

let test_campaign_row_round_trip () =
  let cell =
    {
      Campaign.workload = "richards";
      point = "cc-drop";
      spec = "cc-drop:always";
      seed = 12345;
      fires = 7;
      detections = 0;
      lost_victims = 0;
      delivered_late = 0;
      deopts_delta = 1;
      cycles_delta = -42.5;
      outcome = Campaign.Degraded;
      detail = "";
    }
  in
  match
    Result.bind
      (Tce_obs.Json.of_string
         (Tce_obs.Json.to_string
            (Shard.row_to_json Campaign.codec ~index:9 cell)))
      (Shard.row_of_json Campaign.codec)
  with
  | Error e -> Alcotest.failf "fault cell round-trip: %s" e
  | Ok (i, c) ->
    Alcotest.(check int) "index survives the wire" 9 i;
    Alcotest.(check bool) "cell survives the wire" true (c = cell)

(* --- (f) the threaded executor --- *)

module Machine = Tce_machine.Machine
module Counters = Tce_machine.Counters
module Cat = Tce_jit.Categories

let mk_machine ?prof () =
  let heap = Tce_vm.Heap.create () in
  let cl = Tce_core.Class_list.create heap.Tce_vm.Heap.mem in
  let cc = Tce_core.Class_cache.create () in
  let oracle = Tce_core.Oracle.create () in
  let counters = Counters.create () in
  (heap, Machine.create ?prof ~heap ~cc ~cl ~oracle ~counters ())

let stub_host : Machine.host =
  {
    Machine.call_fn = (fun _ _ -> 0);
    resume = (fun ~opt_id:_ ~bc_pc:_ ~regs:_ ~result:_ -> 0);
    rt_call = (fun _ _ _ -> (0, 0.0));
    on_cc_exception = (fun _ -> ());
    on_deopt = (fun _ -> ());
    is_invalidated = (fun _ -> false);
  }

let deopt0 =
  {
    Lir.bc_pc = 0;
    result_into = None;
    reason =
      Tce_attr.Reason.make Tce_attr.Reason.K_check_map
        Tce_attr.Reason.C_not_class ~pc:0;
  }

(* A stream of (category, flags, op) with every counter class in play. *)
let mk_stream ?(opt_id = 0) code =
  {
    (mk_func []) with
    Lir.opt_id;
    name = Printf.sprintf "threaded-%d" opt_id;
    code =
      Array.of_list (List.map (fun (cat, flags, op) -> Lir.inst ~flags cat op) code);
    deopts = [| deopt0 |];
  }

let guard_smi = Cat.flag_guards_obj_load lor Cat.flag_of_check_kind Cat.Ck_smi
let ck_map = Cat.flag_of_check_kind Cat.Ck_map

(* A counted loop of [n] iterations whose body touches every counter class
   (categories, check kinds, guards, loads, stores, branches, fp); [exit]
   is what follows the loop, from pc 9. Leaders: 0, 3 (the loop) and 9. *)
let counted_loop ?opt_id ~addr n exit =
  mk_stream ?opt_id
    ([
       (Cat.C_other, 0, Lir.MovImm (1, n));  (* 0 *)
       (Cat.C_taguntag, 0, Lir.MovImm (2, 0));  (* 1 *)
       (Cat.C_other, 0, Lir.MovImm (3, addr));  (* 2 *)
       (Cat.C_math, 0, Lir.Alu (Lir.Add, 2, 2, Lir.Imm 3));  (* 3 *)
       (Cat.C_other, 0, Lir.FAdd (0, 0, 1));  (* 4 *)
       (Cat.C_check, guard_smi, Lir.Load (4, 3, 0));  (* 5 *)
       (Cat.C_ccop, 0, Lir.Store (3, 8, Lir.Reg 2));  (* 6 *)
       (Cat.C_math, 0, Lir.Alu (Lir.Sub, 1, 1, Lir.Imm 1));  (* 7 *)
       (Cat.C_check, ck_map, Lir.Branch (Lir.Ne, 1, Lir.Imm 0, 3));  (* 8 *)
     ]
    @ exit)

let dense_of_counters (c : Counters.t) =
  Array.to_list c.Counters.by_cat
  @ Array.to_list c.Counters.by_check_kind
  @ Counters.
      [ c.guards_obj_load; c.opt_loads; c.opt_stores; c.opt_branches; c.opt_fp ]

(* The per-instruction reference: for each (stream, [(leader, entries)]),
   every instruction of each entered block summarized on its own, times
   the block's entries. *)
let reference parts =
  let zero = dense_of_counters (Counters.create ()) in
  List.fold_left
    (fun acc (f, entered) ->
      let pf = Predecode.decode f in
      match Template.layout pf with
      | Error e -> Alcotest.failf "%s rejected: %s" f.Lir.name e
      | Ok lay ->
        List.fold_left
          (fun acc (leader, times) ->
            let b = lay.Template.blocks.(lay.Template.block_of_pc.(leader)) in
            List.fold_left
              (fun acc pc ->
                let s = Template.summarize pf ~start:pc ~len:1 in
                List.map2 (fun a x -> a + (times * x)) acc
                  (Array.to_list s.Template.s_by_cat
                  @ Array.to_list s.Template.s_by_check
                  @ Template.
                      [ s.s_guards; s.s_loads; s.s_stores; s.s_branches; s.s_fp ]))
              acc
              (List.init b.Template.b_len (fun i -> b.Template.b_start + i)))
          acc entered)
    zero parts

(* [~times:k] on zeroed counters gives k × the dense summary. *)
let test_apply_times () =
  let f = counted_loop ~addr:0 1 [ (Cat.C_other, 0, Lir.Ret 2) ] in
  let pf = Predecode.decode f in
  let s = Template.summarize pf ~start:0 ~len:(Array.length pf.Predecode.ops) in
  let dense =
    Array.to_list s.Template.s_by_cat
    @ Array.to_list s.Template.s_by_check
    @ Template.[ s.s_guards; s.s_loads; s.s_stores; s.s_branches; s.s_fp ]
  in
  Alcotest.(check bool) "the summary moves most counters" true
    (List.length (List.filter (fun x -> x <> 0) dense) >= 10);
  List.iter
    (fun k ->
      let c = Counters.create () in
      Template.apply c s ~times:k;
      Alcotest.(check (list int))
        (Printf.sprintf "~times:%d on zeroed counters" k)
        (List.map (fun x -> k * x) dense)
        (dense_of_counters c))
    [ 0; 1; 2; 7; 1_000_003 ]

(* One resident line the loops load from and store to. *)
let scratch_line heap =
  Tce_vm.Mem.allocate heap.Tce_vm.Heap.mem ~bytes:64 ~align:64

(* A loop of 10⁶ iterations under a 64 Ki-word stack: a step that called
   its successor or a block jump without a tail call (inside a [try], or
   with work after it) would need a frame per step, millions deep. The
   loop crosses I-cache lines, carries a pseudo-op and a Class Cache
   special store, so every wrapper and the special-store jump are on the
   path; it runs with the profiler off and on. *)
let test_constant_stack () =
  let iters = 1_000_000 in
  let run prof =
    let heap, m = mk_machine ?prof () in
    let base =
      Tce_vm.Hidden_class.Registry.fresh heap.Tce_vm.Heap.reg
        ~kind:Tce_vm.Hidden_class.K_object ~name:"S" ~prop_names:[| "x" |]
    in
    let o = Tce_vm.Heap.alloc_object heap base ~reserve_props:1 in
    let addr = scratch_line heap in
    let pad = List.init 20 (fun i -> (Cat.C_other, 0, Lir.MovImm (5, i))) in
    let f =
      mk_stream
        ([
           (Cat.C_other, 0, Lir.MovImm (1, iters));  (* 0 *)
           (Cat.C_other, 0, Lir.MovImm (3, addr));  (* 1 *)
           (Cat.C_other, 0, Lir.MovImm (6, o));  (* 2 *)
           (Cat.C_other, 0, Lir.MovImm (7, Tce_vm.Value.smi 9));  (* 3 *)
           (Cat.C_other, 0, Lir.Profile (3, 0, 0));  (* 4: loop head *)
           (Cat.C_other, 0, Lir.Load (4, 3, 0));
         ]
        @ pad
        @ [
            (Cat.C_ccop, 0, Lir.MovClassID 7);
            (Cat.C_ccop, 0, Lir.StoreClassCache (6, 7, Lir.Reg 7, 0));
            (Cat.C_math, 0, Lir.Alu (Lir.Sub, 1, 1, Lir.Imm 1));
            (Cat.C_other, 0, Lir.Branch (Lir.Ne, 1, Lir.Imm 0, 4));
            (Cat.C_other, 0, Lir.Ret 1);
          ])
    in
    Machine.run m stub_host f [| 0 |]
  in
  let old = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set old)
    (fun () ->
      Gc.set { old with Gc.stack_limit = 64 * 1024 };
      List.iter
        (fun (side, prof) ->
          match run prof with
          | v -> Alcotest.(check int) (side ^ ": loop ran to the end") 0 v
          | exception Stack_overflow ->
            Alcotest.failf "%s: the executor overflowed a 64 Ki-word stack" side)
        [ ("profiler off", None); ("profiler on", Some (Tce_prof.Profile.create ())) ])

(* After every exit — a return, a deopt, an exception escaping a nested
   call — the counters equal the per-instruction reference. A second run
   on reset counters must count exactly its own blocks again, so no
   template kept an unfolded count from the first. *)
let test_counts_exact_at_every_exit () =
  let check_twice name m ~run ~expected =
    let c = m.Machine.counters in
    run ();
    Alcotest.(check (list int)) (name ^ ": counters after the exit") expected
      (dense_of_counters c);
    Counters.reset c;
    run ();
    Alcotest.(check (list int)) (name ^ ": no count left behind") expected
      (dense_of_counters c)
  in
  (* a normal return *)
  let heap, m = mk_machine () in
  let addr = scratch_line heap in
  let f = counted_loop ~addr 5 [ (Cat.C_other, 0, Lir.Ret 2) ] in
  check_twice "return" m
    ~run:(fun () ->
      Alcotest.(check int) "returns the sum" 15
        (Machine.run m stub_host f [| 0 |]))
    ~expected:(reference [ (f, [ (0, 1); (3, 5); (9, 1) ]) ]);
  (* a failed checked load deopts: its base r3 holds a raw (even) address,
     which reads as an SMI, and the line's class word is not 42 either *)
  let heap, m = mk_machine () in
  let addr = scratch_line heap in
  let f =
    counted_loop ~addr 4
      [ (Cat.C_check, 0, Lir.CheckedLoad (4, 3, 8, 42, 0));
        (Cat.C_other, 0, Lir.Ret 2) ]
  in
  let resumed = ref 0 in
  let host =
    { stub_host with
      Machine.resume = (fun ~opt_id:_ ~bc_pc:_ ~regs:_ ~result:_ ->
        incr resumed;
        -7) }
  in
  check_twice "deopt" m
    ~run:(fun () ->
      Alcotest.(check int) "the deopt's value" (-7)
        (Machine.run m host f [| 0 |]))
    ~expected:(reference [ (f, [ (0, 1); (3, 4); (9, 1) ]) ]);
  Alcotest.(check int) "deopted into the host each run" 2 !resumed;
  (* an exception raised by [host.call_fn] inside a nested call: outer
     calls inner (fn 7), inner calls fn 9, which raises *)
  let heap, m = mk_machine () in
  let addr = scratch_line heap in
  let call callee =
    [ (Cat.C_other, 0, Lir.CallFn (callee, [| 1 |], 2, 0));
      (Cat.C_other, 0, Lir.Ret 2) ]
  in
  let outer = counted_loop ~opt_id:1 ~addr 3 (call 7) in
  let inner = counted_loop ~opt_id:2 ~addr 6 (call 9) in
  (* each call also charges its runtime instructions to C_other, outside
     any block summary and before the callee runs *)
  let plus_calls n expected =
    let charge =
      match (Predecode.decode outer).Predecode.ops.(9) with
      | Predecode.Pcall_fn (_, _, _, _, cinstrs) -> cinstrs
      | _ -> Alcotest.fail "pc 9 is not the call"
    in
    List.mapi
      (fun i x -> if i = Cat.index Cat.C_other then x + (n * charge) else x)
      expected
  in
  let raising = ref true in
  let rec host =
    { stub_host with
      Machine.call_fn =
        (fun callee _ ->
          if callee = 7 then Machine.run m host inner [| 0 |]
          else if !raising then raise Exit
          else 0) }
  in
  check_twice "exception" m
    ~run:(fun () ->
      match Machine.run m host outer [| 0 |] with
      | _ -> Alcotest.fail "the exception did not escape Machine.run"
      | exception Exit -> ())
    ~expected:
      (plus_calls 2
         (reference
            [ (outer, [ (0, 1); (3, 3); (9, 1) ]);
              (inner, [ (0, 1); (3, 6); (9, 1) ]) ]));
  (* and once the host stops raising, both templates count only the new
     run, returns included *)
  raising := false;
  Counters.reset m.Machine.counters;
  ignore (Machine.run m host outer [| 0 |]);
  Alcotest.(check (list int)) "exception: the next run counts only itself"
    (plus_calls 2
       (reference
          [ (outer, [ (0, 1); (3, 3); (9, 1); (10, 1) ]);
            (inner, [ (0, 1); (3, 6); (9, 1); (10, 1) ]) ]))
    (dense_of_counters m.Machine.counters)

let () =
  Alcotest.run "template+shard"
    [
      ( "layout",
        [
          Alcotest.test_case "every LIR constructor" `Quick
            test_every_constructor;
          Alcotest.test_case "pseudo-ops transparent" `Quick
            test_pseudo_ops_transparent;
          Alcotest.test_case "rejections" `Quick test_layout_rejections;
          Alcotest.test_case "apply ~times scales the summary" `Quick
            test_apply_times;
        ] );
      ( "execution",
        [
          Alcotest.test_case "sparse summary on spot workloads" `Slow
            test_sparse_summary_on_workloads;
          Alcotest.test_case "profile reconciles with templates" `Slow
            test_profile_reconciles_with_templates;
          Alcotest.test_case "threaded loop in constant stack" `Quick
            test_constant_stack;
          Alcotest.test_case "deferred counts exact at every exit" `Quick
            test_counts_exact_at_every_exit;
        ] );
      ( "shard",
        [
          Alcotest.test_case "merge order-independent" `Quick
            test_merge_rows_order_independent;
          Alcotest.test_case "merge failures" `Quick test_merge_rows_failures;
          Alcotest.test_case "merged record deterministic" `Slow
            test_merged_record_deterministic;
          Alcotest.test_case "campaign row round-trip" `Quick
            test_campaign_row_round_trip;
        ] );
    ]
