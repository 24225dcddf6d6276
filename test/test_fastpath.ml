(* Tests for the pre-decoded dispatch fast path and the self-timing
   harness around it:
   (a) Predecode.decode_inst matches independently written expectations
       for every Lir.op constructor (specialized form, baked latencies and
       costs, packed meta bits), and Predecode.decode applies it per pc;
   (b) a spot check of real workloads stays bit-identical to the committed
       results/baseline.json (the full roster is gated by `check`);
   (c) the runner's longest-first schedule is the documented permutation
       and never changes results or their order. *)

open Tce_jit
module P = Tce_machine.Predecode
module Costs = Tce_machine.Costs
module C = Categories

(* --- (a) decode_inst vs reference expectations --- *)

(* Constructor-name tag with an exhaustive match: adding a Lir.op
   constructor breaks this function (warning-as-error), which forces the
   coverage list below to grow with the ISA. *)
let op_tag : Lir.op -> string = function
  | Lir.MovImm _ -> "MovImm"
  | Mov _ -> "Mov"
  | Alu (_, _, _, _) -> "Alu"
  | Alu32 _ -> "Alu32"
  | AluOv _ -> "AluOv"
  | Load _ -> "Load"
  | CheckedLoad _ -> "CheckedLoad"
  | LoadIdx _ -> "LoadIdx"
  | Store _ -> "Store"
  | StoreIdx _ -> "StoreIdx"
  | FMov _ -> "FMov"
  | FMovImm _ -> "FMovImm"
  | FLoad _ -> "FLoad"
  | FLoadIdx _ -> "FLoadIdx"
  | FStore _ -> "FStore"
  | FStoreIdx _ -> "FStoreIdx"
  | FAdd _ -> "FAdd"
  | FSub _ -> "FSub"
  | FMul _ -> "FMul"
  | FDiv _ -> "FDiv"
  | FSqrt _ -> "FSqrt"
  | FNeg _ -> "FNeg"
  | FAbs _ -> "FAbs"
  | CvtIF _ -> "CvtIF"
  | TruncFI _ -> "TruncFI"
  | Branch _ -> "Branch"
  | FBranch _ -> "FBranch"
  | Jmp _ -> "Jmp"
  | CallFn _ -> "CallFn"
  | CallRt _ -> "CallRt"
  | CallRtChecked _ -> "CallRtChecked"
  | Ret _ -> "Ret"
  | Deopt _ -> "Deopt"
  | MovClassID _ -> "MovClassID"
  | MovClassIDArray _ -> "MovClassIDArray"
  | StoreClassCache _ -> "StoreClassCache"
  | StoreClassCacheArray _ -> "StoreClassCacheArray"
  | Profile _ -> "Profile"
  | ProfileStore _ -> "ProfileStore"

let get_cost rt = Costs.rt_cost rt
let ck k = C.flag_of_check_kind k

(* (case name, instruction, expected specialized form, expected counter
   class). Latencies and charged costs are literal on purpose: the test
   re-states the executor's contract instead of calling the same helper
   decode_inst uses. *)
let cases =
  [
    ("movimm", Lir.inst C.C_other (Lir.MovImm (3, 42)), P.Pmov_imm (3, 42), P.class_none);
    ("mov", Lir.inst C.C_other (Lir.Mov (1, 2)), P.Pmov (1, 2), P.class_none);
    ( "alu-add-r",
      Lir.inst C.C_other (Lir.Alu (Lir.Add, 1, 2, Lir.Reg 3)),
      P.Palu_r (Lir.Add, 1, 1, 2, 3),
      P.class_none );
    ( "alu-mul-i",
      Lir.inst C.C_other (Lir.Alu (Lir.Mul, 1, 2, Lir.Imm 7)),
      P.Palu_i (Lir.Mul, 3, 1, 2, 7),
      P.class_none );
    ( "alu-div-r",
      Lir.inst C.C_other (Lir.Alu (Lir.Div, 4, 5, Lir.Reg 6)),
      P.Palu_r (Lir.Div, 20, 4, 5, 6),
      P.class_none );
    ( "alu-rem-i",
      Lir.inst C.C_other (Lir.Alu (Lir.Rem, 4, 5, Lir.Imm 3)),
      P.Palu_i (Lir.Rem, 20, 4, 5, 3),
      P.class_none );
    (* 64-bit shifts decode to the dedicated (land 63) form *)
    ( "alu-shl-r",
      Lir.inst C.C_other (Lir.Alu (Lir.Shl, 1, 2, Lir.Reg 3)),
      P.Psh64_r (0, 1, 2, 3),
      P.class_none );
    ( "alu-shr-i",
      Lir.inst C.C_other (Lir.Alu (Lir.Shr, 1, 2, Lir.Imm 5)),
      P.Psh64_i (1, 1, 2, 5),
      P.class_none );
    ( "alu-sar-i",
      Lir.inst C.C_other (Lir.Alu (Lir.Sar, 1, 2, Lir.Imm 3)),
      P.Psh64_i (2, 1, 2, 3),
      P.class_none );
    (* ...but 32-bit shifts keep the plain Alu32 form (int32 wrap) *)
    ( "alu32-shl-i",
      Lir.inst C.C_taguntag (Lir.Alu32 (Lir.Shl, 1, 2, Lir.Imm 4)),
      P.Palu32_i (Lir.Shl, 1, 1, 2, 4),
      P.class_none );
    ( "alu32-and-r",
      Lir.inst C.C_other (Lir.Alu32 (Lir.And, 1, 2, Lir.Reg 3)),
      P.Palu32_r (Lir.And, 1, 1, 2, 3),
      P.class_none );
    ( "aluov-add-r",
      Lir.inst C.C_math (Lir.AluOv (Lir.Add, 1, 2, Lir.Reg 3, 9)),
      P.Paluov_r (Lir.Add, 1, 1, 2, 3, 9),
      P.class_none );
    ( "aluov-mul-i",
      Lir.inst C.C_math (Lir.AluOv (Lir.Mul, 1, 2, Lir.Imm 3, 9)),
      P.Paluov_i (Lir.Mul, 3, 1, 2, 3, 9),
      P.class_none );
    ( "load",
      Lir.inst ~flags:(ck C.Ck_map) C.C_check (Lir.Load (1, 2, 16)),
      P.Pload (1, 2, 16),
      P.class_load );
    ( "checked-load",
      Lir.inst
        ~flags:(ck C.Ck_checked_load lor C.flag_guards_obj_load)
        C.C_check
        (Lir.CheckedLoad (1, 2, 8, 0xABC, 4)),
      P.Pchecked_load (1, 2, 8, 0xABC, 4),
      (* a memory read for dispatch-port purposes, but *not* counted in
         opt_loads: the reference executor classed it as a check op *)
      P.class_none );
    ( "load-idx",
      Lir.inst C.C_other (Lir.LoadIdx (1, 2, 3, 8)),
      P.Pload_idx (1, 2, 3, 8),
      P.class_load );
    ( "store-r",
      Lir.inst C.C_other (Lir.Store (2, 8, Lir.Reg 5)),
      P.Pstore_r (2, 8, 5),
      P.class_store );
    ( "store-i",
      Lir.inst C.C_other (Lir.Store (2, 8, Lir.Imm 7)),
      P.Pstore_i (2, 8, 7),
      P.class_store );
    ( "store-idx-r",
      Lir.inst C.C_other (Lir.StoreIdx (2, 3, 8, Lir.Reg 5)),
      P.Pstore_idx_r (2, 3, 8, 5),
      P.class_store );
    ( "store-idx-i",
      Lir.inst C.C_other (Lir.StoreIdx (2, 3, 8, Lir.Imm 6)),
      P.Pstore_idx_i (2, 3, 8, 6),
      P.class_store );
    (* register/immediate float moves are not FP *operations*: the
       reference executor left them out of opt_fp *)
    ("fmov", Lir.inst C.C_other (Lir.FMov (1, 2)), P.Pfmov (1, 2), P.class_none);
    ( "fmovimm",
      Lir.inst C.C_other (Lir.FMovImm (1, 1.5)),
      P.Pfmov_imm (1, 1.5),
      P.class_none );
    ( "fload",
      Lir.inst C.C_other (Lir.FLoad (1, 2, 8)),
      P.Pfload (1, 2, 8),
      P.class_load );
    ( "fload-idx",
      Lir.inst C.C_other (Lir.FLoadIdx (1, 2, 3, 8)),
      P.Pfload_idx (1, 2, 3, 8),
      P.class_load );
    ( "fstore",
      Lir.inst C.C_other (Lir.FStore (2, 8, 1)),
      P.Pfstore (2, 8, 1),
      P.class_store );
    ( "fstore-idx",
      Lir.inst C.C_other (Lir.FStoreIdx (2, 3, 8, 1)),
      P.Pfstore_idx (2, 3, 8, 1),
      P.class_store );
    ("fadd", Lir.inst C.C_other (Lir.FAdd (1, 2, 3)), P.Pfadd (1, 2, 3), P.class_fp);
    ("fsub", Lir.inst C.C_other (Lir.FSub (1, 2, 3)), P.Pfsub (1, 2, 3), P.class_fp);
    ("fmul", Lir.inst C.C_other (Lir.FMul (1, 2, 3)), P.Pfmul (1, 2, 3), P.class_fp);
    ("fdiv", Lir.inst C.C_other (Lir.FDiv (1, 2, 3)), P.Pfdiv (1, 2, 3), P.class_fp);
    ("fsqrt", Lir.inst C.C_other (Lir.FSqrt (1, 2)), P.Pfsqrt (1, 2), P.class_fp);
    ("fneg", Lir.inst C.C_other (Lir.FNeg (1, 2)), P.Pfneg (1, 2), P.class_fp);
    ("fabs", Lir.inst C.C_other (Lir.FAbs (1, 2)), P.Pfabs (1, 2), P.class_fp);
    ( "cvtif",
      Lir.inst C.C_taguntag (Lir.CvtIF (1, 2)),
      P.Pcvtif (1, 2),
      P.class_fp );
    ( "truncfi",
      Lir.inst C.C_taguntag (Lir.TruncFI (1, 2)),
      P.Ptruncfi (1, 2),
      P.class_fp );
    ( "branch-r",
      Lir.inst C.C_other (Lir.Branch (Lir.Lt, 1, Lir.Reg 2, 7)),
      P.Pbranch_r (Lir.Lt, 1, 2, 7),
      P.class_branch );
    ( "branch-i",
      Lir.inst
        ~flags:(ck C.Ck_smi lor C.flag_guards_obj_load)
        C.C_check
        (Lir.Branch (Lir.Bit_set, 1, Lir.Imm 1, 7)),
      P.Pbranch_i (Lir.Bit_set, 1, 1, 7),
      P.class_branch );
    ( "fbranch",
      Lir.inst C.C_other (Lir.FBranch (Lir.FLt, 1, 2, 7)),
      P.Pfbranch (Lir.FLt, 1, 2, 7),
      P.class_branch );
    ("jmp", Lir.inst C.C_other (Lir.Jmp 3), P.Pjmp 3, P.class_branch);
    (* guest call: charged 8 + 2 instructions per argument *)
    ( "call-fn",
      Lir.inst C.C_other (Lir.CallFn (2, [| 1; 2; 3 |], 4, 5)),
      P.Pcall_fn (2, [| 1; 2; 3 |], 4, 5, 14),
      P.class_none );
    ( "call-rt",
      Lir.inst C.C_other
        (Lir.CallRt (Lir.Rt_to_bool, [| 1 |], [||], Some 2, None)),
      (let c = get_cost Lir.Rt_to_bool in
       P.Pcall_rt (Lir.Rt_to_bool, [| 1 |], [||], 2, -1, c.Costs.instrs, c.Costs.cycles)),
      P.class_none );
    ( "call-rt-none",
      Lir.inst C.C_other (Lir.CallRt (Lir.Rt_fmod, [||], [| 1; 2 |], None, Some 3)),
      (let c = get_cost Lir.Rt_fmod in
       P.Pcall_rt (Lir.Rt_fmod, [||], [| 1; 2 |], -1, 3, c.Costs.instrs, c.Costs.cycles)),
      P.class_none );
    ( "call-rt-chk",
      Lir.inst C.C_other
        (Lir.CallRtChecked (Lir.Rt_generic_get_elem, [| 1; 2 |], None, 3)),
      (let c = get_cost Lir.Rt_generic_get_elem in
       P.Pcall_rt_chk (Lir.Rt_generic_get_elem, [| 1; 2 |], -1, 3, c.Costs.instrs, c.Costs.cycles)),
      P.class_none );
    ("ret", Lir.inst C.C_other (Lir.Ret 1), P.Pret 1, P.class_none);
    (* Deopt leaves the function like a branch, but the opt_branches
       counter counts only Branch/FBranch/Jmp *)
    ("deopt", Lir.inst C.C_check (Lir.Deopt 2), P.Pdeopt 2, P.class_none);
    ( "mov-classid",
      Lir.inst C.C_ccop (Lir.MovClassID 1),
      P.Pmov_classid 1,
      P.class_none );
    ( "mov-classid-arr",
      Lir.inst C.C_ccop (Lir.MovClassIDArray (2, 3)),
      P.Pmov_classid_arr (2, 3),
      P.class_none );
    ( "store-cc-r",
      Lir.inst C.C_ccop (Lir.StoreClassCache (1, 8, Lir.Reg 2, 3)),
      P.Pstore_cc_r (1, 8, 2, 3),
      P.class_store );
    ( "store-cc-i",
      Lir.inst C.C_ccop (Lir.StoreClassCache (1, 8, Lir.Imm 9, 3)),
      P.Pstore_cc_i (1, 8, 9, 3),
      P.class_store );
    ( "store-cca-r",
      Lir.inst C.C_ccop (Lir.StoreClassCacheArray (1, 2, 3, 8, Lir.Reg 4, 5)),
      P.Pstore_cca_r (1, 2, 3, 8, 4, 5),
      P.class_store );
    ( "store-cca-i",
      Lir.inst C.C_ccop (Lir.StoreClassCacheArray (1, 2, 3, 8, Lir.Imm 0, 5)),
      P.Pstore_cca_i (1, 2, 3, 8, 0, 5),
      P.class_store );
    ( "profile",
      Lir.inst C.C_other (Lir.Profile (1, 2, 3)),
      P.Pprofile (1, 2, 3),
      P.class_none );
    ( "profile-store-r",
      Lir.inst C.C_other (Lir.ProfileStore (1, 2, 3, Lir.Ps_reg 4)),
      P.Pprofile_store_r (1, 2, 3, 4),
      P.class_none );
    ( "profile-store-c",
      Lir.inst C.C_other (Lir.ProfileStore (1, 2, 3, Lir.Ps_classid 7)),
      P.Pprofile_store_c (1, 2, 3, 7),
      P.class_none );
  ]

let test_covers_every_constructor () =
  (* [op_tag] is an exhaustive match, so adding a constructor to [Lir.op]
     fails to compile until it is named there; this count then forces a
     coverage case to exist for it too. *)
  let covered =
    List.sort_uniq compare
      (List.map (fun (_, i, _, _) -> op_tag i.Lir.op) cases)
  in
  Alcotest.(check int) "all 39 Lir.op constructors covered" 39
    (List.length covered)

let test_decode_inst () =
  List.iter
    (fun (name, inst, expect_pre, expect_class) ->
      let pre, meta = P.decode_inst inst in
      Alcotest.(check bool) (name ^ ": specialized form") true (pre = expect_pre);
      Alcotest.(check int)
        (name ^ ": category bits")
        (C.index inst.Lir.cat)
        (meta land P.meta_cat_mask);
      Alcotest.(check int)
        (name ^ ": check-kind slot")
        (C.check_kind_slot inst.Lir.flags)
        ((meta lsr P.meta_check_shift) land 0x7);
      Alcotest.(check bool)
        (name ^ ": guards-obj-load bit")
        (inst.Lir.flags land C.flag_guards_obj_load <> 0)
        (meta land P.meta_guards_bit <> 0);
      Alcotest.(check int)
        (name ^ ": counter class") expect_class
        ((meta lsr P.meta_class_shift) land 0x7);
      Alcotest.(check bool)
        (name ^ ": pseudo bit")
        (match inst.Lir.op with
        | Lir.Profile _ | ProfileStore _ -> true
        | _ -> false)
        (meta land P.meta_pseudo_bit <> 0))
    cases

let test_fmovimm_canonicalized () =
  (* float immediates are canonicalized at decode time, so the executor
     never canonicalizes in the loop; NaN payloads collapse to one bit
     pattern *)
  let weird_nan = Int64.float_of_bits 0x7FF0DEAD0000BEEFL in
  match P.decode_inst (Lir.inst C.C_other (Lir.FMovImm (0, weird_nan))) with
  | P.Pfmov_imm (_, x), _ ->
    Alcotest.(check int64) "NaN immediate pre-canonicalized"
      (Int64.bits_of_float (Tce_vm.Fbits.canon weird_nan))
      (Int64.bits_of_float x)
  | _ -> Alcotest.fail "FMovImm did not decode to Pfmov_imm"

let test_decode_func () =
  let code = Array.of_list (List.map (fun (_, i, _, _) -> i) cases) in
  let lf =
    {
      Lir.fn_id = 0;
      opt_id = 424242;
      name = "synthetic";
      code;
      deopts = [||];
      reprs = [||];
      n_regs = 16;
      n_fregs = 8;
      code_addr = 0;
      spec_deps = [];
      invalidated = false;
      deopt_hits = 0;
    }
  in
  let pf = P.decode lf in
  Alcotest.(check bool) "keeps the Lir.func" true (pf.P.lf == lf);
  Alcotest.(check int) "ops per pc" (Array.length code) (Array.length pf.P.ops);
  Alcotest.(check int) "meta per pc" (Array.length code) (Array.length pf.P.meta);
  Array.iteri
    (fun i inst ->
      let pre, meta = P.decode_inst inst in
      Alcotest.(check bool)
        (Printf.sprintf "pc %d: ops matches decode_inst" i)
        true
        (pf.P.ops.(i) = pre);
      Alcotest.(check int) (Printf.sprintf "pc %d: meta matches decode_inst" i)
        meta pf.P.meta.(i))
    code

(* --- (b) spot check against the committed baseline --- *)

(* The full 55-workload roster is gated by `bench/main.exe -- check`;
   here a 7-workload cross-section (property-heavy, call-heavy, integer,
   float, GC-ish, hashing, string/array traffic) must be bit-identical to
   the committed baseline, so a fast-path regression fails `dune runtest`
   without needing the gate. The baseline was produced by the
   per-instruction reference executor, so this is also the templated
   executor's reference check. *)
let spot_names =
  [ "richards"; "deltablue"; "crypto"; "navier-stokes"; "splay"; "crypto-md5";
    "json-stringify-tinderbox" ]

(* dune runtest runs from _build/default/test, where the declared dep
   materializes at ../results/baseline.json; a direct `dune exec` runs
   from the source root, where the committed file is in place. *)
let baseline_path =
  if Sys.file_exists Tce_runner.Store.baseline_path then
    Tce_runner.Store.baseline_path
  else Filename.concat ".." Tce_runner.Store.baseline_path

let test_baseline_spot_check () =
  match Tce_runner.Store.load baseline_path with
  | Error e -> Alcotest.fail ("committed baseline unreadable: " ^ e)
  | Ok base ->
    List.iter
      (fun name ->
        let b =
          match
            List.find_opt
              (fun (w : Tce_runner.Record.workload) ->
                w.Tce_runner.Record.name = name)
              base.Tce_runner.Record.workloads
          with
          | Some b -> b
          | None -> Alcotest.fail (name ^ " not in the committed baseline")
        in
        let w =
          match Tce_workloads.Workloads.by_name name with
          | Some w -> w
          | None -> Alcotest.fail (name ^ " not in the workload registry")
        in
        let cur = Tce_runner.Runner.run_one w in
        Alcotest.(check bool)
          (name ^ ": bit-identical to committed baseline")
          true
          (Tce_runner.Record.equal_deterministic b cur))
      spot_names

(* --- (c) longest-first scheduling --- *)

let test_longest_first_order () =
  let cost = function
    | "a" -> Some 10.0
    | "b" -> None
    | "c" -> Some 30.0
    | "d" -> Some 10.0
    | _ -> Some 1.0
  in
  let order = Tce_runner.Shard.longest_first_order ~cost [ "a"; "b"; "c"; "d"; "e" ] in
  (* unknown first, then 30, then the 10/10 tie in input order, then 1 *)
  Alcotest.(check (list int)) "documented permutation" [ 1; 2; 0; 3; 4 ]
    (Array.to_list order);
  let id = Tce_runner.Shard.longest_first_order ~cost:(fun _ -> None) [ "x"; "y"; "z" ] in
  Alcotest.(check (list int)) "all-unknown keeps input order" [ 0; 1; 2 ]
    (Array.to_list id);
  Alcotest.(check (list int)) "empty roster" []
    (Array.to_list (Tce_runner.Shard.longest_first_order ~cost []))

let tiny name body =
  Tce_workloads.Workload.make ~suite:Tce_workloads.Workload.Octane
    ~selected:false name body

let sched_roster =
  [
    tiny "sched-a"
      {|
function bench() {
  var s = 0;
  for (var i = 0; i < 50; i++) { s = (s + i * 3) & 65535; }
  return s;
}
|};
    tiny "sched-b"
      {|
function Pt(x) { this.x = x; }
function bench() {
  var s = 0;
  for (var i = 0; i < 40; i++) { var p = new Pt(i); s = (s + p.x) & 65535; }
  return s;
}
|};
    tiny "sched-c"
      {|
var xs = array_new(0);
for (var i = 0; i < 32; i++) { push(xs, i); }
function bench() {
  var s = 0;
  for (var i = 0; i < 32; i++) { s = (s + xs[i]) & 65535; }
  return s;
}
|};
  ]

(* The supervised mode visits cells longest-first; here every spawn fails,
   so it runs them all in this process in that order. Whatever the order,
   rows come back in input order with the in-process mode's numbers. *)
let test_schedule_preserves_results () =
  let module R = Tce_runner in
  let cells = R.Runner.bench_cells sched_roster in
  let journal_path = Filename.temp_file "tce-sched-journal" ".jsonl" in
  let rows (s : R.Record.cell R.Shard.outcome) =
    List.map (fun (_, (w, _)) -> w) s.R.Shard.rows
  in
  let plain = rows (R.Shard.run ~journal_path ~shards:1 ~worker_args:[] cells) in
  (* a cost function that reverses the roster: sched-a cheapest *)
  let cost i = Some (float_of_int (i + 1)) in
  let spawn ~exe:_ ~argv:_ ~stdout:_ ~stderr:_ =
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", ""))
  in
  let scheduled =
    rows
      (R.Shard.run ~spawn
         ~log_dir:(Filename.concat (Filename.get_temp_dir_name ()) "tce-sched-logs")
         ~journal_path ~shards:2 ~worker_args:[] { cells with R.Shard.cost })
  in
  Alcotest.(check (list string))
    "results come back in input order"
    (List.map (fun (w : R.Record.workload) -> w.R.Record.name) plain)
    (List.map (fun (w : R.Record.workload) -> w.R.Record.name) scheduled);
  List.iter2
    (fun (a : R.Record.workload) b ->
      Alcotest.(check bool)
        (a.R.Record.name ^ ": schedule never changes simulated numbers")
        true
        (R.Record.equal_deterministic a b))
    plain scheduled

let () =
  Alcotest.run "fastpath"
    [
      ( "decode",
        [
          Alcotest.test_case "covers every constructor" `Quick
            test_covers_every_constructor;
          Alcotest.test_case "decode_inst vs reference" `Quick test_decode_inst;
          Alcotest.test_case "float immediates canonicalized" `Quick
            test_fmovimm_canonicalized;
          Alcotest.test_case "decode applies per pc" `Quick test_decode_func;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "7-workload spot check" `Slow
            test_baseline_spot_check;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "longest-first permutation" `Quick
            test_longest_first_order;
          Alcotest.test_case "schedule preserves results" `Quick
            test_schedule_preserves_results;
        ] );
    ]
