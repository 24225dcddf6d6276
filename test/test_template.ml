(* Tests for superinstruction-template execution and roster sharding:
   (a) exhaustive block-splitting coverage: one sample of every LIR
       constructor, classified by a wildcard-free match (so adding a
       constructor breaks this test at compile time), laid out and checked
       against the fusion invariants (lib/machine/README.md);
   (b) layout rejections: the streams the fused executor must refuse
       (no terminator at the end, fall-through off the end, branch target
       or register operand out of range, empty stream);
   (c) templated execution is bit-identical to the per-instruction loop on
       real workloads (every simulated field of the benchmark record);
   (d) the cycle-attribution profiler still reconciles exactly with
       templates on (summarize fails the run otherwise);
   (e) shard-merge determinism: row envelopes merged in any completion
       order produce the identical run record, and malformed merges fail
       loudly. *)

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
  Template.apply c s;
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
      | None -> Alcotest.failf "%s: layout rejected a well-formed stream" name
      | Some t ->
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
  let reject name code ~n_regs ~n_fregs =
    match Template.layout (Predecode.decode (mk_func ~n_regs ~n_fregs code)) with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: layout accepted a stream it must reject" name
  in
  reject "no terminator at the end" [ Lir.MovImm (0, 1) ] ~n_regs:8 ~n_fregs:1;
  reject "fall-through terminator runs off the end"
    [ Lir.Branch (Lir.Eq, 0, Lir.Imm 0, 0) ]
    ~n_regs:8 ~n_fregs:1;
  reject "branch target out of range" [ Lir.Jmp 5 ] ~n_regs:8 ~n_fregs:1;
  reject "int register out of range"
    [ Lir.Mov (0, 99); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1;
  reject "float register out of range"
    [ Lir.FMov (0, 7); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:2;
  reject "classid-array index out of range"
    [ Lir.MovClassIDArray (4, 0); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1;
  Alcotest.(check bool) "empty stream" true
    (Template.layout (Predecode.decode (mk_func [])) = None)

(* --- (c) bit-identity on real workloads --- *)

let spot_names =
  [ "richards"; "deltablue"; "crypto-md5"; "splay"; "json-stringify-tinderbox" ]

let workload name =
  match Tce_workloads.Workloads.by_name name with
  | Some w -> w
  | None -> Alcotest.failf "workload %s missing from the registry" name

let no_templates =
  { Tce_engine.Engine.default_config with templates = false }

let test_bit_identity_vs_per_instruction () =
  List.iter
    (fun name ->
      let w = workload name in
      let templated = Runner.run_one w in
      let reference = Runner.run_one ~config:no_templates w in
      Alcotest.(check bool)
        (name ^ ": templated record = per-instruction record")
        true
        (Record.equal_deterministic templated reference))
    spot_names

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
          | None -> ()
          | Some t ->
            Array.iter
              (fun (b : Template.block) ->
                incr blocks;
                check_sparse name b.Template.b_sum)
              t.Template.blocks)
        e.Tce_engine.Engine.mach.Tce_machine.Machine.pre_cache;
      Alcotest.(check bool) (name ^ ": compiled blocks were checked") true
        (!blocks > 0))
    spot_names

(* --- (d) profile reconciliation with templates on --- *)

let test_profile_reconciles_with_templates () =
  (* summarize raises unless every simulated cycle and baseline instruction
     lands in exactly one (function, pc, cost) cell; run_pair_profiled
     additionally fails on an off/on checksum mismatch. Default config =
     templates on. *)
  let p = Tce_metrics.Harness.run_pair_profiled (workload "richards") in
  Alcotest.(check string) "profiled the right workload" "richards"
    p.Tce_metrics.Harness.p_name

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

(* Row envelopes + merge on real records: merging permuted completion
   orders yields the identical normalized run. *)
let test_merged_record_deterministic () =
  let ws = List.map workload [ "richards"; "deltablue"; "crypto-md5" ] in
  let rows =
    List.mapi (fun i w -> (i, Runner.run_one w)) ws
  in
  let through_wire order =
    let rows' =
      List.map
        (fun (i, r) ->
          match
            Result.bind
              (Tce_obs.Json.of_string
                 (Tce_obs.Json.to_string
                    (Shard.row_to_json Runner.bench_codec ~index:i r)))
              (Shard.row_of_json Runner.bench_codec)
          with
          | Ok row -> row
          | Error e -> Alcotest.failf "row round-trip: %s" e)
        order
    in
    match Shard.merge_rows ~what:"bench-row" ~expected:(List.length ws) rows' with
    | Error e -> Alcotest.failf "merge: %s" e
    | Ok merged ->
      Record.normalize_run
        (Store.make_run ~shards:2 ~host_wall_seconds:1.5 merged)
  in
  let a = through_wire rows
  and b = through_wire (List.rev rows) in
  Alcotest.(check bool) "permuted completion order, identical record" true
    (Record.equal_run a b);
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
  | Error e -> Alcotest.failf "fault-cell round-trip: %s" e
  | Ok (i, c) ->
    Alcotest.(check int) "index survives the wire" 9 i;
    Alcotest.(check bool) "cell survives the wire" true (c = cell)

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
        ] );
      ( "execution",
        [
          Alcotest.test_case "bit-identity vs per-instruction" `Slow
            test_bit_identity_vs_per_instruction;
          Alcotest.test_case "sparse summary on spot workloads" `Slow
            test_sparse_summary_on_workloads;
          Alcotest.test_case "profile reconciles with templates" `Slow
            test_profile_reconciles_with_templates;
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
