(** Superinstruction-template layout: split a pre-decoded stream into
    straight-line basic blocks that the machine can execute as fused
    closures (see lib/machine/README.md, "Template fusion invariants").

    This module is the pure analysis half: which pcs lead blocks, where
    each block ends, and the en-bloc counter summary of each block. The
    executor counts block entries and, when a run exits, adds each
    block's summary times its entries ({!apply}) instead of counting
    instruction by instruction. The closure compilation (the half that
    needs {!Machine.t}'s timing primitives) lives in machine.ml; keeping
    the layout separate makes it independently testable against the 39
    LIR constructors (test/test_template.ml).

    Invariants the layout guarantees (and the executor relies on):
    - every control-flow successor of a block (branch target, fall-through
      after a terminator) is a block leader, so the executor only ever
      enters blocks at their first instruction;
    - non-terminator instructions never leave the block (no deopt, no
      exception, no host call), so the per-block counter summary is exactly
      what per-instruction counting would have accumulated;
    - measurement pseudo-ops are transparent: zero timing cost, excluded
      from the summary (they are not dispatched instructions), and
      ignored by the I-cache line analysis (they never fetch). *)

open Tce_jit

(** Does this instruction end a basic block? Anything that can change the
    pc non-sequentially, leave optimized code (deopt, return, Class Cache
    exception) or call into the host splits the stream here. *)
let is_terminator (p : Predecode.pre) =
  match p with
  | Predecode.Paluov_r _ | Paluov_i _  (* overflow branch *)
  | Pchecked_load _  (* may deopt *)
  | Pbranch_r _ | Pbranch_i _ | Pfbranch _ | Pjmp _
  | Pcall_fn _  (* host call; may OSR out *)
  | Pcall_rt_chk _ | Pcall_rt _  (* runtime stubs run host code *)
  | Pret _ | Pdeopt _
  | Pstore_cc_r _ | Pstore_cc_i _ | Pstore_cca_r _
  | Pstore_cca_i _  (* may raise a CC exception *) ->
    true
  | Pprofile _ | Pprofile_store_r _ | Pprofile_store_c _ | Pmov_imm _ | Pmov _
  | Palu_r _ | Palu_i _ | Psh64_r _ | Psh64_i _ | Palu32_r _ | Palu32_i _
  | Pload _ | Pload_idx _ | Pfload _ | Pfload_idx _ | Pstore_r _ | Pstore_i _
  | Pstore_idx_r _ | Pstore_idx_i _ | Pfstore _ | Pfstore_idx _ | Pfmov _
  | Pfmov_imm _ | Pfadd _ | Pfsub _ | Pfmul _ | Pfdiv _ | Pfsqrt _ | Pfneg _
  | Pfabs _ | Pcvtif _ | Ptruncfi _ | Pmov_classid _ | Pmov_classid_arr _ ->
    false

(** Static in-stream successor targets of a terminator (deopt exits leave
    the function and have no in-stream target). *)
let targets (p : Predecode.pre) =
  match p with
  | Predecode.Paluov_r (_, _, _, _, _, tgt) | Paluov_i (_, _, _, _, _, tgt)
  | Pbranch_r (_, _, _, tgt) | Pbranch_i (_, _, _, tgt)
  | Pfbranch (_, _, _, tgt) | Pjmp tgt ->
    [ tgt ]
  | _ -> []

(** Can this terminator continue at [pc + 1]? (Everything except the three
    unconditional exits.) A fall-through terminator as the stream's last
    instruction would publish pc = n, so {!layout} rejects it. *)
let falls_through (p : Predecode.pre) =
  match p with Predecode.Pret _ | Pdeopt _ | Pjmp _ -> false | _ -> true

(* The register files an operand can index. *)
type regfile = Int_reg | Float_reg | Classid_slot

(** Register operands of an instruction as (file, index) pairs. A negative
    destination on a runtime-stub call means "no result" and is left out. *)
let operands (op : Predecode.pre) =
  let r x = (Int_reg, x) and fr x = (Float_reg, x) in
  let k x = (Classid_slot, x) in
  let all file a = List.map (fun x -> (file, x)) (Array.to_list a) in
  let dest file x = if x < 0 then [] else [ (file, x) ] in
  match op with
  | Predecode.Pprofile (x, _, _) | Pprofile_store_c (x, _, _, _) -> [ r x ]
  | Pprofile_store_r (x, _, _, v) -> [ r x; r v ]
  | Pmov_imm (x, _) | Pret x | Pmov_classid x -> [ r x ]
  | Pmov (a, b) -> [ r a; r b ]
  | Palu_r (_, _, a, b, c) | Palu32_r (_, _, a, b, c) | Psh64_r (_, a, b, c)
  | Paluov_r (_, _, a, b, c, _) ->
    [ r a; r b; r c ]
  | Palu_i (_, _, a, b, _) | Palu32_i (_, _, a, b, _) | Psh64_i (_, a, b, _)
  | Paluov_i (_, _, a, b, _, _) ->
    [ r a; r b ]
  | Pload (a, b, _) | Pchecked_load (a, b, _, _, _) -> [ r a; r b ]
  | Pload_idx (a, b, c, _) -> [ r a; r b; r c ]
  | Pfload (fd, b, _) -> [ fr fd; r b ]
  | Pfload_idx (fd, b, c, _) -> [ fr fd; r b; r c ]
  | Pstore_r (b, _, v) -> [ r b; r v ]
  | Pstore_i (b, _, _) -> [ r b ]
  | Pstore_idx_r (b, i, _, v) -> [ r b; r i; r v ]
  | Pstore_idx_i (b, i, _, _) -> [ r b; r i ]
  | Pfstore (b, _, fv) -> [ r b; fr fv ]
  | Pfstore_idx (b, i, _, fv) -> [ r b; r i; fr fv ]
  | Pfmov (a, b) | Pfsqrt (a, b) | Pfneg (a, b) | Pfabs (a, b) -> [ fr a; fr b ]
  | Pfmov_imm (a, _) -> [ fr a ]
  | Pfadd (a, b, c) | Pfsub (a, b, c) | Pfmul (a, b, c) | Pfdiv (a, b, c) ->
    [ fr a; fr b; fr c ]
  | Pcvtif (fd, rs) -> [ fr fd; r rs ]
  | Ptruncfi (rd, fs) -> [ r rd; fr fs ]
  | Pbranch_r (_, a, b, _) -> [ r a; r b ]
  | Pbranch_i (_, a, _, _) -> [ r a ]
  | Pfbranch (_, a, b, _) -> [ fr a; fr b ]
  | Pjmp _ | Pdeopt _ -> []
  | Pcall_fn (_, argr, rd, _, _) -> all Int_reg argr @ [ r rd ]
  | Pcall_rt_chk (_, args, rd, _, _, _) -> all Int_reg args @ dest Int_reg rd
  | Pcall_rt (_, args, fargs, rd, fd, _, _) ->
    all Int_reg args @ all Float_reg fargs @ dest Int_reg rd
    @ dest Float_reg fd
  | Pmov_classid_arr (kk, x) -> [ k kk; r x ]
  | Pstore_cc_r (b, _, v, _) -> [ r b; r v ]
  | Pstore_cc_i (b, _, _, _) -> [ r b ]
  | Pstore_cca_r (kk, b, i, _, v, _) -> [ k kk; r b; r i; r v ]
  | Pstore_cca_i (kk, b, i, _, _, _) -> [ k kk; r b; r i ]

(** The first register operand out of range for its file ([0, n_regs)
    ints, [0, n_fregs) floats, classid-array indices 0-3), as an error
    text. The fused closures compile operand accesses to unchecked loads
    and stores (the register files are sized once per run), so such a
    stream must never run. *)
let operand_error (pf : Predecode.func) : string option =
  let bound = function
    | Int_reg -> pf.Predecode.lf.Lir.n_regs
    | Float_reg -> pf.Predecode.lf.Lir.n_fregs
    | Classid_slot -> 4
  in
  let name = function
    | Int_reg -> "register r"
    | Float_reg -> "float register f"
    | Classid_slot -> "classid-array index "
  in
  let n = Array.length pf.Predecode.ops in
  let rec scan pc =
    if pc >= n then None
    else
      match
        List.find_opt
          (fun (file, i) -> i < 0 || i >= bound file)
          (operands pf.Predecode.ops.(pc))
      with
      | Some (file, i) ->
        Some (Printf.sprintf "%s%d out of range at pc %d" (name file) i pc)
      | None -> scan (pc + 1)
  in
  scan 0

(** En-bloc counter summary: the counts of the block's non-pseudo
    instructions, one per instruction by its packed {!Predecode} meta.
    Exact per block entry because no instruction before the terminator
    can exit the block. *)
type summary = {
  s_by_cat : int array;  (** per-{!Categories} dynamic instructions *)
  s_by_check : int array;  (** per-check-kind slot (slot 0 = unattributed) *)
  s_guards : int;
  s_loads : int;
  s_stores : int;
  s_branches : int;
  s_fp : int;
  s_pairs : int array;
      (** the nonzero counts above as flat [slot; delta] pairs, the form
          {!apply} adds *)
}

(* Sparse slot numbering: the category slots, then the check-kind slots,
   then guards, loads, stores, branches and fp. *)
let slot_check0 = Categories.count
let slot_scalar0 = slot_check0 + Categories.check_kind_count + 1

type block = {
  b_start : int;  (** leader pc *)
  b_len : int;  (** instruction count, terminator included *)
  b_terminated : bool;
      (** false: the block ends because the next pc is another leader and
          execution falls through to [b_start + b_len] *)
  b_sum : summary;
}

type t = {
  blocks : block array;
  block_of_pc : int array;  (** leader pc -> block index; -1 elsewhere *)
}

let summarize (pf : Predecode.func) ~start ~len : summary =
  let by_cat = Array.make Categories.count 0 in
  let by_check = Array.make (Categories.check_kind_count + 1) 0 in
  let guards = ref 0 in
  let loads = ref 0 and stores = ref 0 and branches = ref 0 and fp = ref 0 in
  let cat_check = Categories.index Categories.C_check in
  for pc = start to start + len - 1 do
    let m = pf.Predecode.meta.(pc) in
    if m land Predecode.meta_pseudo_bit = 0 then begin
      let ci = m land Predecode.meta_cat_mask in
      by_cat.(ci) <- by_cat.(ci) + 1;
      if ci = cat_check then begin
        let slot = (m lsr Predecode.meta_check_shift) land 7 in
        by_check.(slot) <- by_check.(slot) + 1
      end;
      if m land Predecode.meta_guards_bit <> 0 then incr guards;
      match (m lsr Predecode.meta_class_shift) land 7 with
      | 1 -> incr loads
      | 2 -> incr stores
      | 3 -> incr branches
      | 4 -> incr fp
      | _ -> ()
    end
  done;
  let dense =
    Array.concat
      [ by_cat; by_check; [| !guards; !loads; !stores; !branches; !fp |] ]
  in
  let pairs = ref [] in
  for slot = Array.length dense - 1 downto 0 do
    if dense.(slot) <> 0 then pairs := slot :: dense.(slot) :: !pairs
  done;
  {
    s_by_cat = by_cat;
    s_by_check = by_check;
    s_guards = !guards;
    s_loads = !loads;
    s_stores = !stores;
    s_branches = !branches;
    s_fp = !fp;
    s_pairs = Array.of_list !pairs;
  }

(** Add [times] × a block's summary to the counters: only its nonzero
    slots, one add per counter the block moves instead of one per counter.
    The unsafe accesses are in range because [summarize] emits only slots
    below [Categories.count] into [by_cat] and below
    [check_kind_count + 1] into [by_check_kind], the lengths
    {!Counters.create} gives them. *)
let apply (c : Counters.t) (s : summary) ~times =
  let p = s.s_pairs in
  for k = 0 to (Array.length p / 2) - 1 do
    let slot = Array.unsafe_get p (2 * k)
    and d = Array.unsafe_get p ((2 * k) + 1) * times in
    if slot < slot_check0 then
      Array.unsafe_set c.Counters.by_cat slot
        (Array.unsafe_get c.Counters.by_cat slot + d)
    else if slot < slot_scalar0 then begin
      let i = slot - slot_check0 in
      Array.unsafe_set c.Counters.by_check_kind i
        (Array.unsafe_get c.Counters.by_check_kind i + d)
    end
    else
      match slot - slot_scalar0 with
      | 0 -> c.Counters.guards_obj_load <- c.Counters.guards_obj_load + d
      | 1 -> c.Counters.opt_loads <- c.Counters.opt_loads + d
      | 2 -> c.Counters.opt_stores <- c.Counters.opt_stores + d
      | 3 -> c.Counters.opt_branches <- c.Counters.opt_branches + d
      | _ -> c.Counters.opt_fp <- c.Counters.opt_fp + d
  done

(** Compute the template layout of a decoded stream, or the first rule it
    breaks: a branch target out of range, straight-line code (or a
    fall-through terminator) running off the end of the stream, or a
    register operand out of range. The machine refuses to install a
    rejected stream. *)
let layout (pf : Predecode.func) : (t, string) result =
  let ops = pf.Predecode.ops in
  let n = Array.length ops in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let leader = Array.make n false in
  if n = 0 then fail "empty stream"
  else begin
    leader.(0) <- true;
    for pc = 0 to n - 1 do
      if is_terminator ops.(pc) then begin
        if pc + 1 < n then leader.(pc + 1) <- true;
        List.iter
          (fun tgt ->
            if tgt < 0 || tgt >= n then
              fail
                (Printf.sprintf "branch target %d out of range at pc %d" tgt pc)
            else leader.(tgt) <- true)
          (targets ops.(pc))
      end
    done;
    (* straight-line code must not run off the end of the stream — and a
       fall-through terminator last would publish pc = n *)
    if not (is_terminator ops.(n - 1)) then
      fail (Printf.sprintf "no terminator at the end (pc %d)" (n - 1))
    else if falls_through ops.(n - 1) then
      fail
        (Printf.sprintf "fall-through terminator at the end (pc %d)" (n - 1));
    Option.iter fail (operand_error pf)
  end;
  match !error with
  | Some e -> Error e
  | None ->
    let blocks = ref [] in
    let block_of_pc = Array.make n (-1) in
    let nblocks = ref 0 in
    let pc = ref 0 in
    while !pc < n do
      let start = !pc in
      let e = ref start in
      (* extend past fusible instructions; stop at a terminator or just
         before the next leader *)
      while
        (not (is_terminator ops.(!e))) && !e + 1 < n && not leader.(!e + 1)
      do
        incr e
      done;
      let terminated = is_terminator ops.(!e) in
      let len = !e - start + 1 in
      block_of_pc.(start) <- !nblocks;
      incr nblocks;
      blocks :=
        { b_start = start; b_len = len; b_terminated = terminated;
          b_sum = summarize pf ~start ~len }
        :: !blocks;
      pc := start + len
    done;
    Ok { blocks = Array.of_list (List.rev !blocks); block_of_pc }
