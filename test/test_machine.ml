(* Tests for the timing machinery: caches, TLBs, branch prediction, energy,
   costs, and the LIR executor's timing/functional behaviour. *)

open Tce_machine

(* --- cache model --- *)

let test_cache_cold_then_warm () =
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x1038);
  Alcotest.(check bool) "different line misses" false (Cache.access c 0x2000)

let test_cache_lru_eviction () =
  (* 1KB, 2-way, 64B lines -> 8 sets; three lines in one set evict LRU *)
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  let a0 = 0x0000 and a1 = 0x0200 and a2 = 0x0400 in
  ignore (Cache.access c a0);
  ignore (Cache.access c a1);
  ignore (Cache.access c a0);  (* a0 most recent *)
  ignore (Cache.access c a2);  (* evicts a1 *)
  Alcotest.(check bool) "a0 survives" true (Cache.access c a0);
  Alcotest.(check bool) "a1 evicted" false (Cache.access c a1)

let test_cache_insert_is_free () =
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  ignore (Cache.insert c 0x3000);
  let before = c.Cache.stats.accesses in
  Alcotest.(check int) "insert does not count" 0 before;
  Alcotest.(check bool) "inserted line hits" true (Cache.access c 0x3000)

let test_cache_capacity () =
  (* sweeping twice the capacity thrashes; sweeping half fits *)
  let c = Cache.create ~size_kb:4 ~ways:4 ~line_bytes:64 in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 64))
  done;
  let hits = ref 0 in
  for i = 0 to 31 do
    if Cache.access c (i * 64) then incr hits
  done;
  Alcotest.(check int) "2KB re-sweep fully hits in 4KB cache" 32 !hits

let test_tlb () =
  let t = Tlb.create ~entries:2 in
  Alcotest.(check bool) "cold" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "same page" true (Tlb.access t 0x1800);
  ignore (Tlb.access t 0x10000);
  ignore (Tlb.access t 0x20000);  (* evicts page of 0x1000 *)
  Alcotest.(check bool) "evicted" false (Tlb.access t 0x1000)

(* --- lookup shortcuts against a reference LRU ---

   [Cache.access] tries each set's MRU way before its scan, and
   [Tlb.access] finds a page through a page -> entry side table. Both must
   stay exact, so seeded streams run against a plain linear-scan LRU with
   the documented victim rule (the last empty way, else the first way with
   the strictly smallest stamp), and the hit/miss sequence and the stats
   must match. The streams re-touch a line or page right after evicting
   it, which is where a stale MRU way or side-table entry would answer
   "hit". *)

type ref_lru = {
  r_tags : int array array;  (** per set; -1 = empty *)
  r_stamps : int array array;
  mutable r_clock : int;
  mutable r_hits : int;
  mutable r_misses : int;
}

let ref_create ~sets ~ways =
  {
    r_tags = Array.init sets (fun _ -> Array.make ways (-1));
    r_stamps = Array.init sets (fun _ -> Array.make ways 0);
    r_clock = 0;
    r_hits = 0;
    r_misses = 0;
  }

(* One access ([count] = true) or one stats-free insert of [tag] in [set]. *)
let ref_touch r ~set ~tag ~count =
  r.r_clock <- r.r_clock + 1;
  let tags = r.r_tags.(set) and stamps = r.r_stamps.(set) in
  let ways = Array.length tags in
  let way = ref (-1) in
  Array.iteri (fun w x -> if x = tag then way := w) tags;
  if !way >= 0 then begin
    if count then begin
      stamps.(!way) <- r.r_clock;
      r.r_hits <- r.r_hits + 1
    end;
    true
  end
  else begin
    if count then r.r_misses <- r.r_misses + 1;
    let victim = ref (-1) in
    Array.iteri (fun w x -> if x = -1 then victim := w) tags;
    if !victim < 0 then begin
      victim := 0;
      for w = 1 to ways - 1 do
        if stamps.(w) < stamps.(!victim) then victim := w
      done
    end;
    tags.(!victim) <- tag;
    stamps.(!victim) <- r.r_clock;
    false
  end

(* A stream op on a pool of [pool] lines or pages: 0 = touch [k]; 1 = touch
   [k], then [evict] others that share its set, then [k] again; 2 = insert
   [k] (the cache's nursery path; a touch for the TLB); 3 = repeat the last
   address. *)
let lru_ops = QCheck.(list (pair (int_bound 3) (int_bound 1000)))

(* Run [ops] through [real] and [model], which return hit/miss; [addr k]
   is the address of pool item [k]; [sibling k j] the [j]th other item
   sharing [k]'s set. *)
let run_lru_stream ops ~pool ~evict ~addr ~sibling ~real ~model =
  let out_real = ref [] and out_model = ref [] in
  let last = ref 0 in
  let touch ~count a =
    last := a;
    let h = real ~count a and h' = model ~count a in
    if count then begin
      out_real := h :: !out_real;
      out_model := h' :: !out_model
    end
  in
  List.iter
    (fun (op, k) ->
      let k = k mod pool in
      match op with
      | 0 -> touch ~count:true (addr k)
      | 1 ->
        touch ~count:true (addr k);
        for j = 1 to evict do
          touch ~count:true (addr (sibling k j))
        done;
        touch ~count:true (addr k)
      | 2 -> touch ~count:false (addr k)
      | _ -> touch ~count:true !last)
    ops;
  (List.rev !out_real, List.rev !out_model)

let prop_cache_matches_lru =
  (* 2 KB, 4 ways, 64 B lines: 8 sets; the pool is 8 lines in each of
     sets 0-2, so every set overflows *)
  QCheck.Test.make ~name:"Cache.access matches a linear-scan LRU" ~count:300
    lru_ops (fun ops ->
      let ways = 4 and sets = 8 in
      let c = Cache.create ~size_kb:2 ~ways ~line_bytes:64 in
      let r = ref_create ~sets ~ways in
      let line k = (k mod 3) + (sets * (k / 3)) in
      let addr k = (line k * 64) + ((k * 7) land 63) in
      let real ~count a =
        if count then Cache.access c a
        else begin
          ignore (Cache.insert c a);
          false
        end
      in
      let model ~count a =
        let l = a lsr 6 in
        ref_touch r ~set:(l land (sets - 1)) ~tag:l ~count
      in
      let hits, hits' =
        run_lru_stream ops ~pool:24 ~evict:ways ~addr
          ~sibling:(fun k j -> (k + (3 * j)) mod 24)
          ~real ~model
      in
      hits = hits'
      && c.Cache.stats.hits = r.r_hits
      && c.Cache.stats.misses = r.r_misses
      && c.Cache.stats.accesses = r.r_hits + r.r_misses)

let prop_tlb_matches_lru =
  QCheck.Test.make ~name:"Tlb.access matches a linear-scan LRU" ~count:300
    lru_ops (fun ops ->
      let entries = 4 in
      let t = Tlb.create ~entries in
      let r = ref_create ~sets:1 ~ways:entries in
      let addr k = (k lsl Tlb.page_bits) + ((k * 97) land 4095) in
      let real ~count:_ a = Tlb.access t a in
      let model ~count:_ a =
        ref_touch r ~set:0 ~tag:(a lsr Tlb.page_bits) ~count:true
      in
      let hits, hits' =
        run_lru_stream ops ~pool:12 ~evict:entries ~addr
          ~sibling:(fun k j -> (k + j) mod 12)
          ~real ~model
      in
      hits = hits'
      && t.Tlb.stats.hits = r.r_hits
      && t.Tlb.stats.misses = r.r_misses
      && t.Tlb.stats.accesses = r.r_hits + r.r_misses)

let seeded_test prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop

(* A machine over a fresh heap, Class Cache and Class List. *)
let mk_machine () =
  let heap = Tce_vm.Heap.create () in
  let cl = Tce_core.Class_list.create heap.Tce_vm.Heap.mem in
  let cc = Tce_core.Class_cache.create () in
  let oracle = Tce_core.Oracle.create () in
  let counters = Counters.create () in
  (heap, Machine.create ~heap ~cc ~cl ~oracle ~counters ())

(* --- fill times kept in the ways of the L1D ---

   [Machine.daccess] reads an L1 hit's fill time from the way that hit,
   where the reference model kept a [line -> fill time] table and probed
   it on every hit. The model below is that reference, over linear-scan
   LRUs for the L1D and L2: a seeded stream of accesses and [prefill]
   inserts must give the same completion cycle, access by access. The
   stream makes both cases that need the table: a hit while the line's
   fill is still in flight, and a line evicted, brought back by [prefill]
   and hit while its old fill is still in flight. *)

type ref_daccess = {
  d_l1 : ref_lru;
  d_l2 : ref_lru;
  d_tlb : Tlb.t;
  d_fills : (int, int) Hashtbl.t;
  d_prefilled : (int, unit) Hashtbl.t;  (** lines [prefill] brought in *)
  mutable d_fill_hits : int;  (** hits while the line's fill is in flight *)
  mutable d_prefill_hits : int;  (** ... of a line [prefill] brought back *)
}

let ref_daccess_create (m : Machine.t) =
  let l1 = m.Machine.l1d and l2 = m.Machine.l2 in
  {
    d_l1 = ref_create ~sets:l1.Cache.nsets ~ways:l1.Cache.ways;
    d_l2 = ref_create ~sets:l2.Cache.nsets ~ways:l2.Cache.ways;
    d_tlb = Tlb.create ~entries:m.Machine.cfg.Config.dtlb_entries;
    d_fills = Hashtbl.create 64;
    d_prefilled = Hashtbl.create 64;
    d_fill_hits = 0;
    d_prefill_hits = 0;
  }

let ref_touch_line (r : ref_lru) line ~count =
  ref_touch r ~set:(line mod Array.length r.r_tags) ~tag:line ~count

let ref_daccess_access d (cfg : Config.t) ~start addr =
  let tlb_hit = Tlb.access d.d_tlb addr in
  let line = addr lsr 6 in
  let hit_l1 = ref_touch_line d.d_l1 line ~count:true in
  let lat =
    if hit_l1 then cfg.l1_load_latency
    else if ref_touch_line d.d_l2 line ~count:true then
      cfg.l1_load_latency + cfg.l2_latency
    else cfg.l1_load_latency + cfg.l2_latency + cfg.mem_latency
  in
  let lat = if tlb_hit then lat else lat + cfg.tlb_miss_penalty in
  if hit_l1 then begin
    let ready = Option.value ~default:0 (Hashtbl.find_opt d.d_fills line) in
    if ready > start then begin
      d.d_fill_hits <- d.d_fill_hits + 1;
      if Hashtbl.mem d.d_prefilled line then
        d.d_prefill_hits <- d.d_prefill_hits + 1;
      ready + cfg.l1_load_latency
    end
    else start + lat
  end
  else begin
    Hashtbl.remove d.d_prefilled line;
    Hashtbl.replace d.d_fills line (start + lat);
    start + lat
  end

let ref_daccess_prefill d ~addr ~bytes =
  for line = addr lsr 6 to (addr + bytes - 1) lsr 6 do
    if not (ref_touch_line d.d_l1 line ~count:false) then
      Hashtbl.replace d.d_prefilled line ();
    ignore (ref_touch_line d.d_l2 line ~count:false)
  done

let test_daccess_matches_fill_table () =
  let _, m = mk_machine () in
  let cfg = m.Machine.cfg in
  let d = ref_daccess_create m in
  let rand = Random.State.make [| 0xf111 |] in
  let sets = m.Machine.l1d.Cache.nsets and ways = m.Machine.l1d.Cache.ways in
  (* 2 ways' worth of lines in each of L1D sets 0-2, so every set evicts *)
  let line_of s j = s + (sets * j) in
  let clock = ref 1 and n = ref 0 and fresh = ref (2 * ways) in
  let access ?(dt = Random.State.int rand 24) addr =
    incr n;
    let start = !clock in
    let got = Machine.daccess m ~start addr in
    let want = ref_daccess_access d cfg ~start addr in
    if got <> want then
      Alcotest.failf "access %d (addr %#x, start %d): completes at %d, reference %d"
        !n addr start got want;
    clock := !clock + dt
  in
  let prefill addr bytes =
    Machine.prefill m ~addr ~bytes;
    ref_daccess_prefill d ~addr ~bytes
  in
  for _ = 1 to 20_000 do
    let s = Random.State.int rand 3 and j = Random.State.int rand (2 * ways) in
    let addr = (line_of s j * 64) + Random.State.int rand 64 in
    match Random.State.int rand 4 with
    | 0 | 1 -> access addr
    | 2 -> prefill addr (1 + Random.State.int rand 192)
    | _ ->
      (* miss a line never seen, so its fill comes from memory; evict it
         by touching [ways] others of its set, bring it back with
         [prefill] and hit it, all before that fill completes *)
      let addr = line_of s !fresh * 64 in
      incr fresh;
      access ~dt:1 addr;
      for w = 1 to ways do
        access ~dt:1 (line_of s ((j + w) mod (2 * ways)) * 64)
      done;
      prefill addr 8;
      access addr
  done;
  Alcotest.(check bool) "hits during a fill" true (d.d_fill_hits > 1000);
  Alcotest.(check bool) "evict, prefill, hit during the old fill" true
    (d.d_prefill_hits > 1000);
  let c = m.Machine.l1d.Cache.stats in
  Alcotest.(check (pair int int)) "L1D hits and misses"
    (d.d_l1.r_hits, d.d_l1.r_misses) (c.Cache.hits, c.Cache.misses)

(* --- the byte-wide predictor table ---

   Each counter is one byte of [Branch.t.table]; the reference keeps the
   2-bit counters in an [int array] under the same (fn, pc) hash. A
   16-counter table makes distinct branches share counters, and runs of
   one outcome push counters into saturation at 0 and at 3. *)
let test_branch_matches_int_table () =
  let bits = 4 in
  let b = Branch.create ~bits () and b' = Branch.create ~bits () in
  let table = Array.make (1 lsl bits) 1 in
  let index ~fn ~pc = ((fn * 4096) + (pc * 7)) land ((1 lsl bits) - 1) in
  let rand = Random.State.make [| 0xb4a4c |] in
  let sat0 = ref 0 and sat3 = ref 0 and mispredicts = ref 0 in
  let users = Array.make (1 lsl bits) [] in
  for n = 1 to 20_000 do
    let fn = Random.State.int rand 4 and pc = Random.State.int rand 40 in
    let taken = Random.State.int rand 8 < (if n / 500 mod 2 = 0 then 7 else 1) in
    let i = index ~fn ~pc in
    if not (List.mem (fn, pc) users.(i)) then users.(i) <- (fn, pc) :: users.(i);
    let c = table.(i) in
    let want = c >= 2 = taken in
    if not want then incr mispredicts;
    if taken && c = 3 then incr sat3;
    if (not taken) && c = 0 then incr sat0;
    table.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
    let got = Branch.record_at b (Branch.index b ~fn ~pc) ~taken in
    let got' = Branch.record b' ~fn ~pc ~taken in
    if got <> want || got' <> want then
      Alcotest.failf "branch %d (fn %d, pc %d): record_at %b, record %b, reference %b"
        n fn pc got got' want
  done;
  Alcotest.(check bool) "saturated at 3" true (!sat3 > 100);
  Alcotest.(check bool) "saturated at 0" true (!sat0 > 100);
  Alcotest.(check bool) "aliased counters" true
    (Array.exists (fun l -> List.length l > 1) users);
  Alcotest.(check (pair int int)) "stats"
    (20_000, !mispredicts)
    (b.Branch.stats.branches, b.Branch.stats.mispredicts);
  Alcotest.(check int) "one byte per counter" 65536
    (Bytes.length (Branch.create ()).Branch.table)

(* --- allocation discipline ---

   The memory-model lookups run on every simulated load, store and fetch,
   so they must allocate nothing: no closure, no ref cell, no option. *)

let calls = 100_000

(* [calls] calls of [f] leave [Gc.minor_words] where it was. A first,
   unmeasured round lets [f] fill and grow its tables. *)
let check_no_alloc what f =
  let minor_words () =
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    Gc.minor_words () -. w0
  in
  ignore (minor_words ());
  let words = minor_words () in
  if words > 0.0 then
    Alcotest.failf "%s allocates %.0f words in %d calls" what words calls

let test_lookups_allocate_nothing () =
  let module It = Tce_support.Int_table in
  let tbl = It.create () in
  for k = 0 to 99 do
    It.set tbl (k * 7919) k
  done;
  check_no_alloc "Int_table.find" (fun i -> It.find tbl ((i land 255) * 7919) (-1));
  let c = Cache.create ~size_kb:32 ~ways:8 ~line_bytes:64 in
  check_no_alloc "Cache.access (hits)" (fun i -> Cache.access c ((i land 63) * 64));
  (* lines 64 apart all fall in set 0 of 64: each access misses its 8 ways *)
  check_no_alloc "Cache.access (misses)" (fun i -> Cache.access c (i * 64 * 64));
  check_no_alloc "Cache.insert" (fun i -> Cache.insert c (i * 64 * 64));
  check_no_alloc "Cache.access_slot (hits)" (fun i ->
      Cache.access_slot c ((i land 63) * 64));
  check_no_alloc "Cache.access_slot (misses)" (fun i ->
      Cache.access_slot c (i * 64 * 64));
  let b = Branch.create () in
  check_no_alloc "Branch.record_at" (fun i ->
      Branch.record_at b (Branch.index b ~fn:(i land 7) ~pc:i) ~taken:(i land 3 = 0));
  let _, m = mk_machine () in
  check_no_alloc "Machine.daccess (L1 hits)" (fun i ->
      Machine.daccess m ~start:i ((i land 63) * 64));
  check_no_alloc "Machine.daccess (misses)" (fun i ->
      Machine.daccess m ~start:i (i * 64 * 64));
  check_no_alloc "Machine.prefill" (fun i ->
      Machine.prefill m ~addr:(i * 64 * 64) ~bytes:128);
  (* the page index's occasional tombstone sweep allocates its new arrays
     in the major heap at this size (see lib/machine/README.md) *)
  let t = Tlb.create ~entries:Config.default.Config.dtlb_entries in
  check_no_alloc "Tlb.access (hits)" (fun i -> Tlb.access t ((i land 63) * 4096));
  check_no_alloc "Tlb.access (misses)" (fun i -> Tlb.access t (i * 4096))

let test_branch_predictor_learns () =
  let b = Branch.create () in
  (* an always-taken branch is mispredicted at most twice, then learned *)
  let mispredicts = ref 0 in
  for _ = 1 to 50 do
    if not (Branch.record b ~fn:1 ~pc:10 ~taken:true) then incr mispredicts
  done;
  Alcotest.(check bool) "learns quickly" true (!mispredicts <= 2);
  (* alternating branch stays hard *)
  let b2 = Branch.create () in
  let m2 = ref 0 in
  for i = 1 to 50 do
    if not (Branch.record b2 ~fn:1 ~pc:11 ~taken:(i mod 2 = 0)) then incr m2
  done;
  Alcotest.(check bool) "alternating mispredicts a lot" true (!m2 >= 20)

(* --- config / costs / energy --- *)

let test_config_table2 () =
  let c = Config.default in
  Alcotest.(check int) "issue width" 4 c.Config.issue_width;
  Alcotest.(check int) "window" 128 c.Config.window_size;
  Alcotest.(check int) "ldst" 10 c.Config.outstanding_ldst;
  Alcotest.(check int) "l1 lat" 2 c.Config.l1_load_latency;
  Alcotest.(check int) "cc entries" 128 c.Config.class_cache_entries;
  Alcotest.(check int) "rows listed" 11 (List.length (Config.rows c))

let test_costs_positive () =
  List.iter
    (fun rt ->
      let c = Costs.rt_cost rt in
      Alcotest.(check bool) "positive instrs" true (c.Costs.instrs > 0);
      Alcotest.(check bool) "positive cycles" true (c.Costs.cycles > 0))
    [
      Tce_jit.Lir.Rt_alloc_object (1, 4);
      Rt_alloc_array (Tce_vm.Hidden_class.E_smi, 8);
      Rt_box_double;
      Rt_generic_get_prop "x";
      Rt_generic_set_prop "x";
      Rt_generic_get_elem;
      Rt_generic_set_elem;
      Rt_generic_binop Tce_minijs.Ast.Add;
      Rt_elem_store_slow;
      Rt_to_bool;
      Rt_builtin Tce_jit.Builtins.B_sqrt;
      Rt_fmod;
    ]

let test_energy_monotone () =
  let base =
    {
      Energy.instrs = 1000; alu_ops = 500; fp_ops = 50; branches = 100;
      l1_accesses = 300; l2_accesses = 10; mem_accesses = 2; cc_accesses = 20;
      cycles = 500.0;
    }
  in
  let e1 = Energy.compute base in
  let e2 = Energy.compute { base with Energy.instrs = 2000 } in
  let e3 = Energy.compute { base with Energy.cycles = 1000.0 } in
  Alcotest.(check bool) "total positive" true (e1.Energy.total_nj > 0.0);
  Alcotest.(check bool) "more instrs, more dynamic" true
    (e2.Energy.dynamic_nj > e1.Energy.dynamic_nj);
  Alcotest.(check bool) "more cycles, more leakage" true
    (e3.Energy.leakage_nj > e1.Energy.leakage_nj);
  Alcotest.(check (float 1e-9)) "total = dynamic + leakage" e1.Energy.total_nj
    (e1.Energy.dynamic_nj +. e1.Energy.leakage_nj)

(* --- counters --- *)

let test_counters () =
  let c = Counters.create () in
  Counters.add_cat c Tce_jit.Categories.C_check 5;
  Counters.add_cat c Tce_jit.Categories.C_other 10;
  Alcotest.(check int) "cat read" 5 (Counters.cat c Tce_jit.Categories.C_check);
  Alcotest.(check int) "opt total" 15 (Counters.opt_instrs c);
  c.Counters.baseline_instrs <- 100;
  Alcotest.(check int) "total" 115 (Counters.total_instrs c);
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:1 ~pos:2;
  Alcotest.(check int) "obj loads" 2 c.Counters.obj_loads_total;
  Alcotest.(check int) "first line" 1 c.Counters.obj_loads_first_line;
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.total_instrs c)

let test_counters_fig3_classification () =
  let c = Counters.create () in
  let o = Tce_core.Oracle.create () in
  (* slot (1,0,1): two classes -> poly; slot (1,0,2): one class -> mono elem *)
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:5;
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:6;
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:2 ~value_classid:5;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:2;
  let mono_p, mono_e, poly_p, poly_e = Counters.classify_obj_loads c o in
  Alcotest.(check (list int)) "classification" [ 0; 1; 2; 0 ]
    [ mono_p; mono_e; poly_p; poly_e ]

(* --- machine timing sanity (via the engine, which owns program setup) --- *)

module E = Tce_engine.Engine

let run_cycles src =
  let t = E.of_source src in
  E.set_measuring t false;
  ignore (E.run_main t);
  for _ = 1 to 9 do
    ignore (E.call_by_name t "bench" [||])
  done;
  E.reset_measurement t;
  let c0 = E.opt_cycles t in
  E.set_measuring t true;
  ignore (E.call_by_name t "bench" [||]);
  E.opt_cycles t - c0

let test_timing_scales_with_work () =
  let src n =
    Printf.sprintf
      "function bench() { var s = 0; for (var i = 0; i < %d; i++) { s = (s + i) & 65535; } return s; }"
      n
  in
  let c1 = run_cycles (src 100) in
  let c2 = run_cycles (src 1000) in
  Alcotest.(check bool) "work scales cycles" true (c2 > 5 * c1);
  Alcotest.(check bool) "cycles positive" true (c1 > 0)

let test_timing_deterministic () =
  let src =
    "function bench() { var s = 0.0; for (var i = 0; i < 500; i++) { s = s + i * 0.25; } return s; }"
  in
  Alcotest.(check int) "same cycles for same program" (run_cycles src)
    (run_cycles src)

let test_fp_latency_visible () =
  (* a dependent FDiv chain must be slower than a dependent FAdd chain *)
  let adds =
    run_cycles
      "function bench() { var s = 1.5; for (var i = 0; i < 400; i++) { s = s + 1.25; } return s; }"
  in
  let divs =
    run_cycles
      "function bench() { var s = 1.5e30; for (var i = 0; i < 400; i++) { s = s / 1.01; } return s; }"
  in
  Alcotest.(check bool)
    (Printf.sprintf "fdiv chain slower (%d > %d)" divs adds)
    true (divs > adds)

let test_memory_latency_visible () =
  (* random-ish strided traversal of a large array must cost more per
     element than a small resident one *)
  let src size =
    Printf.sprintf
      {|
var a = array_new(%d);
for (var i = 0; i < %d; i++) { a[i] = (i * 7919 + 13) %% %d; }
function bench() {
  var x = 0;
  for (var k = 0; k < 2000; k++) { x = a[x]; }
  return x;
}
|}
      size size size
  in
  let small = run_cycles (src 256) in
  let big = run_cycles (src 65536) in
  Alcotest.(check bool)
    (Printf.sprintf "cache misses cost cycles (%d > %d)" big small)
    true (big > small + 1000)


(* --- direct LIR timing tests (hand-built machine + host) --- *)

let stub_host : Machine.host =
  {
    Machine.call_fn = (fun _ _ -> 0);
    resume = (fun ~opt_id:_ ~bc_pc:_ ~regs:_ ~result:_ -> 0);
    rt_call = (fun _ _ _ -> (0, 0.0));
    on_cc_exception = (fun _ -> ());
    on_deopt = (fun _ -> ());
    is_invalidated = (fun _ -> false);
  }

let mk_func code ~n_regs =
  {
    Tce_jit.Lir.fn_id = 0;
    opt_id = 0;
    name = "lir-test";
    code = Array.of_list (List.map (Tce_jit.Lir.inst Tce_jit.Categories.C_other) code);
    deopts = [||];
    reprs = [||];
    n_regs;
    n_fregs = 1;
    code_addr = 0x5000_0000;
    spec_deps = [];
    invalidated = false;
    deopt_hits = 0;
  }

let run_lir code ~n_regs =
  let _, m = mk_machine () in
  let f = mk_func code ~n_regs in
  (* first run warms the I-cache (cold code is a front-end bubble per line);
     measure the second, steady-state run *)
  ignore (Machine.run m stub_host f [| 0 |]);
  let c0 = m.Machine.cycle in
  ignore (Machine.run m stub_host f [| 0 |]);
  m.Machine.cycle - c0

let test_dispatch_width () =
  (* 400 independent immediates on a 4-wide machine: ~100 cycles *)
  let open Tce_jit.Lir in
  let code =
    List.init 400 (fun i -> MovImm (1 + (i mod 8), i)) @ [ Ret 1 ]
  in
  let cycles = run_lir code ~n_regs:16 in
  Alcotest.(check bool)
    (Printf.sprintf "4-wide dispatch (%d cycles for 400 instrs)" cycles)
    true
    (cycles >= 100 && cycles <= 130)

let test_dependence_chain_serializes () =
  let open Tce_jit.Lir in
  let chain =
    MovImm (1, 0) :: List.init 400 (fun _ -> Alu (Add, 1, 1, Imm 1)) @ [ Ret 1 ]
  in
  let cycles = run_lir chain ~n_regs:4 in
  (* one ALU per cycle on the critical path; the dispatch clock trails the
     completion front by at most the window size (128) *)
  Alcotest.(check bool)
    (Printf.sprintf "dependent adds serialize (%d cycles)" cycles)
    true
    (cycles >= 400 - 130 && cycles <= 420)

let test_load_port_limit () =
  let open Tce_jit.Lir in
  let heap, m = mk_machine () in
  (* one resident line, 300 independent loads: 1 load/cycle port bound *)
  let addr = Tce_vm.Mem.allocate heap.Tce_vm.Heap.mem ~bytes:64 ~align:64 in
  Tce_vm.Mem.store heap.Tce_vm.Heap.mem addr 7;
  let code =
    MovImm (1, addr) :: List.init 300 (fun i -> Load (2 + (i mod 4), 1, 0))
    @ [ Ret 1 ]
  in
  let f = mk_func code ~n_regs:8 in
  ignore (Machine.run m stub_host f [| 0 |]);
  let c0 = m.Machine.cycle in
  ignore (Machine.run m stub_host f [| 0 |]);
  let cycles = m.Machine.cycle - c0 in
  Alcotest.(check bool)
    (Printf.sprintf "load port bound (%d cycles for 300 loads)" cycles)
    true (cycles >= 295)

(* The store port is the loads' twin, and a port of its own: stores alone
   are 1/cycle bound, and loads interleaved with stores share no port. *)
let test_store_port_limit () =
  let open Tce_jit.Lir in
  let heap, m = mk_machine () in
  let addr = Tce_vm.Mem.allocate heap.Tce_vm.Heap.mem ~bytes:64 ~align:64 in
  let cycles_of body =
    let f = mk_func ((MovImm (1, addr) :: body) @ [ Ret 1 ]) ~n_regs:8 in
    ignore (Machine.run m stub_host f [| 0 |]);
    let c0 = m.Machine.cycle in
    ignore (Machine.run m stub_host f [| 0 |]);
    m.Machine.cycle - c0
  in
  let stores = cycles_of (List.init 300 (fun i -> Store (1, 8 * (i mod 4), Imm i))) in
  Alcotest.(check bool)
    (Printf.sprintf "store port bound (%d cycles for 300 stores)" stores)
    true (stores >= 295);
  let mixed =
    cycles_of
      (List.init 300 (fun i ->
           if i mod 2 = 0 then Load (2 + (i mod 4), 1, 0)
           else Store (1, 8 + (8 * (i mod 3)), Imm i)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "loads and stores on separate ports (%d cycles for 150 + 150)"
       mixed)
    true (mixed < 200)

let test_fused_branch_executes () =
  let open Tce_jit.Lir in
  (* loop: r1 counts down from 50; branch back while non-zero *)
  let code =
    [
      MovImm (1, 50);  (* 0 *)
      Alu (Sub, 1, 1, Imm 1);  (* 1 *)
      Branch (Ne, 1, Imm 0, 1);  (* 2 *)
      Ret 1;  (* 3 *)
    ]
  in
  let _, m = mk_machine () in
  let v = Machine.run m stub_host (mk_func code ~n_regs:4) [| 0 |] in
  Alcotest.(check int) "loop terminated with 0" 0 v

(* A stream the template layout rejects is an install error, not a silent
   run: no terminator at the end would run straight off the stream. *)
let test_unfusible_stream_traps () =
  let open Tce_jit.Lir in
  let _, m = mk_machine () in
  let f = mk_func [ MovImm (1, 5); Mov (2, 1) ] ~n_regs:4 in
  match Machine.run m stub_host f [| 0 |] with
  | _ -> Alcotest.fail "an unterminated stream ran"
  | exception Machine.Trap msg ->
    Alcotest.(check string) "names the function, its opt_id and the rule"
      "cannot install lir-test (opt_id 0): no terminator at the end (pc 1)" msg

let test_special_store_fires_class_cache () =
  let open Tce_jit.Lir in
  let heap, m = mk_machine () in
  let base =
    Tce_vm.Hidden_class.Registry.fresh heap.Tce_vm.Heap.reg
      ~kind:Tce_vm.Hidden_class.K_object ~name:"M" ~prop_names:[| "x" |]
  in
  let o = Tce_vm.Heap.alloc_object heap base ~reserve_props:1 in
  let code =
    [
      MovImm (1, o);
      MovImm (2, Tce_vm.Value.smi 9);
      MovClassID 2;
      StoreClassCache (1, 7 (* slot 1, -1 tag *), Reg 2, 0);
      Ret 2;
    ]
  in
  let f =
    { (mk_func code ~n_regs:4) with
      Tce_jit.Lir.deopts =
        [| { Tce_jit.Lir.bc_pc = 0; result_into = None;
             reason =
               Tce_attr.Reason.make Tce_attr.Reason.K_check_map
                 Tce_attr.Reason.C_not_class ~pc:0 } |] }
  in
  ignore (Machine.run m stub_host f [| 0 |]);
  Alcotest.(check int) "one CC access" 1 m.Machine.cc.Tce_core.Class_cache.stats.accesses;
  Alcotest.(check (option int)) "profiled as SMI" (Some Tce_vm.Layout.smi_classid)
    (Tce_core.Class_list.profiled_class m.Machine.cl ~classid:base.Tce_vm.Hidden_class.id
       ~line:0 ~pos:1);
  (* and the store really wrote through *)
  Alcotest.(check (option int)) "value stored" (Some 9)
    (Option.map Tce_vm.Value.smi_value (Tce_vm.Heap.get_prop heap o "x"))

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "cold/warm" `Quick test_cache_cold_then_warm;
          Alcotest.test_case "LRU" `Quick test_cache_lru_eviction;
          Alcotest.test_case "insert (nursery)" `Quick test_cache_insert_is_free;
          Alcotest.test_case "capacity" `Quick test_cache_capacity;
        ] );
      ("tlb", [ Alcotest.test_case "basic" `Quick test_tlb ]);
      ( "reference lru",
        [ seeded_test prop_cache_matches_lru; seeded_test prop_tlb_matches_lru ] );
      ( "allocation",
        [
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_lookups_allocate_nothing;
        ] );
      ("branch", [ Alcotest.test_case "bimodal learning" `Quick test_branch_predictor_learns ]);
      ( "reference fills",
        [
          Alcotest.test_case "daccess matches a line -> fill time table" `Quick
            test_daccess_matches_fill_table;
        ] );
      ( "reference predictor",
        [
          Alcotest.test_case "byte table matches an int array" `Quick
            test_branch_matches_int_table;
        ] );
      ( "config/costs/energy",
        [
          Alcotest.test_case "Table 2" `Quick test_config_table2;
          Alcotest.test_case "costs positive" `Quick test_costs_positive;
          Alcotest.test_case "energy monotone" `Quick test_energy_monotone;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counters;
          Alcotest.test_case "fig3 classification" `Quick
            test_counters_fig3_classification;
        ] );
      ( "timing",
        [
          Alcotest.test_case "scales with work" `Quick test_timing_scales_with_work;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
          Alcotest.test_case "fp latency" `Quick test_fp_latency_visible;
          Alcotest.test_case "memory latency" `Quick test_memory_latency_visible;
        ] );
      ( "lir executor",
        [
          Alcotest.test_case "dispatch width" `Quick test_dispatch_width;
          Alcotest.test_case "dependence chains" `Quick
            test_dependence_chain_serializes;
          Alcotest.test_case "load port" `Quick test_load_port_limit;
          Alcotest.test_case "store port" `Quick test_store_port_limit;
          Alcotest.test_case "branch loop" `Quick test_fused_branch_executes;
          Alcotest.test_case "special store" `Quick
            test_special_store_fires_class_cache;
          Alcotest.test_case "unfusible stream traps" `Quick
            test_unfusible_stream_traps;
        ] );
    ]
