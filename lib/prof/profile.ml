(** Deterministic simulated-time cycle-attribution profiler (see
    profile.mli and lib/prof/README.md).

    The machine owns a monotone cycle clock; the profiler keeps a watermark
    [last] of the highest cycle already attributed. At every
    cycle-advancing site the machine calls {!take}[ t cost now]: the delta
    [now - last] lands in the current site's flat accumulator cell and the
    watermark moves up. Because the clock never decreases and every
    mutation site is followed by exactly one [take], the per-cell sums
    equal the machine's total cycle count *by construction* — asserted in
    {!summarize}. The baseline tier is analytic (instructions x CPI), so
    its attribution counts instructions per bytecode pc instead.

    One profile instance serves exactly one engine: the watermark is
    meaningful only against a single machine clock. *)

(** {1 Cost kinds — the "why" axis of the machine-side matrix} *)

let n_cost = 9
let cost_dispatch = 0 (* issue-width / load/store-port contention *)
let cost_window = 1 (* window-full retire stalls (absorbs load latency) *)
let cost_icache = 2 (* L1I/L2/memory front-end bubbles + I-TLB misses *)
let cost_storeq = 3 (* store-queue-full stalls *)
let cost_branch = 4 (* branch-mispredict restarts *)
let cost_ccmiss = 5 (* Class Cache miss penalties *)
let cost_rt = 6 (* runtime-stub serialization (boxing, generic ops) *)
let cost_call = 7 (* guest call overhead (arg serialization + linkage) *)
let cost_deopt = 8 (* deoptimization penalties *)

let cost_names =
  [|
    "dispatch"; "window"; "icache"; "storeq"; "branch"; "cc-miss"; "rt-stub";
    "call"; "deopt";
  |]

(** {1 Baseline extras — instruction charges with no bytecode pc} *)

let n_extra = 3
let extra_transition = 0 (* hidden-class transition slow path *)
let extra_elem_grow = 1 (* elements backing-store growth *)
let extra_deopt_transition = 2 (* deopt frame reconstruction *)
let extra_names = [| "ic-transition"; "elem-grow"; "deopt-transition" |]

(** {1 Accumulators} *)

type acc = {
  id : int;
  name : string;
  labels : string array;  (** per-pc instruction label (category / kind) *)
  cells : int array;
      (** machine code: [n_pcs * n_cost] cycles; baseline code: [n_pcs]
          instruction counts *)
}

let acc_pcs (a : acc) = Array.length a.labels

(* Safe landing pad for [take] before the first [set_site]: one pc wide,
   with a full row of cost cells. It is never registered in a table, so any
   cycles parked here would be lost from reconciliation — the machine must
   [set_site] before its first attribution point (it does, at run entry). *)
let dummy_acc =
  { id = -1; name = "(none)"; labels = [| "-" |]; cells = Array.make n_cost 0 }

type t = {
  enabled : bool;
  mutable last : int;  (** machine-cycle watermark *)
  mutable cur : acc;
  mutable cur_pc : int;
  mutable cur_base : acc;
  mutable cur_base_pc : int;
  opt_accs : (int * int, acc) Hashtbl.t;
      (** keyed by (opt_id, n_pcs): opt_ids are fresh per compilation in the
          engine, but unit tests rebuild code under reused ids — keying on
          the length too keeps every accumulated cell in the reconciliation
          sum *)
  base_accs : (int * int, acc) Hashtbl.t;  (** keyed by (fn_id, n_pcs) *)
  extras : int array;  (** baseline instruction charges without a pc *)
  cost_totals : int array;  (** running machine-cycle totals per cost kind *)
}

let null =
  {
    enabled = false;
    last = 0;
    cur = dummy_acc;
    cur_pc = 0;
    cur_base = dummy_acc;
    cur_base_pc = 0;
    opt_accs = Hashtbl.create 1;
    base_accs = Hashtbl.create 1;
    extras = [| 0; 0; 0 |];
    cost_totals = Array.make n_cost 0;
  }

let create () =
  {
    enabled = true;
    last = 0;
    cur = dummy_acc;
    cur_pc = 0;
    cur_base = dummy_acc;
    cur_base_pc = 0;
    opt_accs = Hashtbl.create 64;
    base_accs = Hashtbl.create 64;
    extras = Array.make n_extra 0;
    cost_totals = Array.make n_cost 0;
  }

let on t = t.enabled

let register ~(table : (int * int, acc) Hashtbl.t) t ~id ~name ~labels =
  if not t.enabled then invalid_arg "Profile.register: profiler disabled";
  let key = (id, Array.length labels) in
  match Hashtbl.find_opt table key with
  | Some a -> a
  | None ->
    let a = { id; name; labels; cells = Array.make (Array.length labels * n_cost) 0 } in
    Hashtbl.replace table key a;
    a

let register_opt t ~id ~name ~labels = register ~table:t.opt_accs t ~id ~name ~labels

let register_base t ~id ~name ~labels =
  if not t.enabled then invalid_arg "Profile.register_base: profiler disabled";
  let key = (id, Array.length labels) in
  match Hashtbl.find_opt t.base_accs key with
  | Some a -> a
  | None ->
    let a =
      { id; name; labels; cells = Array.make (max 1 (Array.length labels)) 0 }
    in
    Hashtbl.replace t.base_accs key a;
    a

let find_opt_acc t ~id ~pcs = Hashtbl.find_opt t.opt_accs (id, pcs)
let find_base_acc t ~id ~pcs = Hashtbl.find_opt t.base_accs (id, pcs)

(* --- hot-path attribution (called only when [on t]) --- *)

let[@inline] set_site t a pc =
  t.cur <- a;
  t.cur_pc <- pc

let[@inline] take t cost now =
  let d = now - t.last in
  if d <> 0 then begin
    t.last <- now;
    let a = t.cur in
    let i = (t.cur_pc * n_cost) + cost in
    Array.unsafe_set a.cells i (Array.unsafe_get a.cells i + d);
    Array.unsafe_set t.cost_totals cost
      (Array.unsafe_get t.cost_totals cost + d)
  end

let[@inline] set_base_site t a pc =
  t.cur_base <- a;
  t.cur_base_pc <- pc

let[@inline] base_add t n =
  let a = t.cur_base in
  let i = t.cur_base_pc in
  Array.unsafe_set a.cells i (Array.unsafe_get a.cells i + n)

let[@inline] base_extra t k n = t.extras.(k) <- t.extras.(k) + n

let cost_totals_named t =
  Array.mapi (fun i v -> (cost_names.(i), v)) t.cost_totals

(* --- deterministic views --- *)

(** Accumulators in a deterministic order (Hashtbl iteration order is not
    one): by id, then stream length. *)
let sorted_accs table =
  let l = Hashtbl.fold (fun _ a acc -> a :: acc) table [] in
  List.sort
    (fun a b ->
      if a.id <> b.id then compare a.id b.id
      else compare (acc_pcs a) (acc_pcs b))
    l

let opt_cells_sum t =
  List.fold_left
    (fun s a -> Array.fold_left ( + ) s a.cells)
    0 (sorted_accs t.opt_accs)

let base_cells_sum t =
  List.fold_left
    (fun s a -> Array.fold_left ( + ) s a.cells)
    (Array.fold_left ( + ) 0 t.extras)
    (sorted_accs t.base_accs)

(* --- summaries --- *)

type site = { s_fn : string; s_pc : int; s_label : string; s_cycles : int }

type summary = {
  program : string;
  mechanism : bool;
  machine_cycles : int;
  baseline_instrs : int;
  baseline_cpi : float;
  total_cycles : float;
  by_cost : (string * int) array;  (** machine cycles per cost kind *)
  by_label : (string * int) array;
      (** machine cycles per instruction label (check kinds, tags-untags,
          math, cc-op, other), descending *)
  base_by_label : (string * int) array;
      (** baseline instructions per bytecode label + named extras,
          descending *)
  top_sites : site list;  (** hottest (function, pc) machine sites *)
}

let sorted_tally tbl =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Array.of_list
    (List.sort
       (fun (la, va) (lb, vb) -> if va <> vb then compare vb va else compare la lb)
       l)

let bump tbl k v =
  if v <> 0 then
    Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0)

(** Build the per-run summary, asserting the reconciliation invariants:
    machine-side cell sums must equal the machine's total cycle count, and
    baseline-side sums (cells + extras) must equal the baseline instruction
    counter. A mismatch means a cycle-advancing site lost its [take] hook —
    a profiler bug, not a measurement artifact — so it fails loudly.
    [baseline_instrs] must come from a run without counter resets (the
    whole-run protocol). *)
let summarize t ~program ~mechanism ~machine_cycles ~baseline_instrs
    ~baseline_cpi : summary =
  if not t.enabled then invalid_arg "Profile.summarize: profiler disabled";
  let opt_sum = opt_cells_sum t in
  if opt_sum <> machine_cycles then
    failwith
      (Printf.sprintf
         "%s: profile cells sum to %d cycles but the machine ran %d — a \
          cycle-advancing site is missing its attribution hook"
         program opt_sum machine_cycles);
  let base_sum = base_cells_sum t in
  if base_sum <> baseline_instrs then
    failwith
      (Printf.sprintf
         "%s: baseline profile sums to %d instructions but the counter saw \
          %d — a baseline charge site is missing its attribution hook"
         program base_sum baseline_instrs);
  let labels = Hashtbl.create 16 and sites = ref [] in
  List.iter
    (fun a ->
      for pc = 0 to acc_pcs a - 1 do
        let cyc = ref 0 in
        for c = 0 to n_cost - 1 do
          cyc := !cyc + a.cells.((pc * n_cost) + c)
        done;
        if !cyc > 0 then begin
          bump labels a.labels.(pc) !cyc;
          sites :=
            { s_fn = a.name; s_pc = pc; s_label = a.labels.(pc); s_cycles = !cyc }
            :: !sites
        end
      done)
    (sorted_accs t.opt_accs);
  let base_labels = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Array.iteri (fun pc v -> if pc < acc_pcs a then bump base_labels a.labels.(pc) v) a.cells)
    (sorted_accs t.base_accs);
  Array.iteri (fun i v -> bump base_labels extra_names.(i) v) t.extras;
  let top_sites =
    let l =
      List.sort
        (fun a b ->
          if a.s_cycles <> b.s_cycles then compare b.s_cycles a.s_cycles
          else compare (a.s_fn, a.s_pc) (b.s_fn, b.s_pc))
        !sites
    in
    List.filteri (fun i _ -> i < 20) l
  in
  {
    program;
    mechanism;
    machine_cycles;
    baseline_instrs;
    baseline_cpi;
    total_cycles =
      float_of_int machine_cycles
      +. (float_of_int baseline_instrs *. baseline_cpi);
    by_cost = cost_totals_named t;
    by_label = sorted_tally labels;
    base_by_label = sorted_tally base_labels;
    top_sites;
  }

(* --- collapsed-stack flamegraph export --- *)

(** Collapsed-stack ("folded") lines: [frame;frame;frame count], one sample
    set per line — the format speedscope and inferno/flamegraph.pl load
    directly. Machine cycles are exact; baseline cells are instruction
    counts scaled by the analytic CPI and rounded per cell. *)
let folded ?(root = "") ~baseline_cpi t =
  let buf = Buffer.create 8192 in
  let pre = if root = "" then "" else root ^ ";" in
  List.iter
    (fun a ->
      for pc = 0 to acc_pcs a - 1 do
        for c = 0 to n_cost - 1 do
          let v = a.cells.((pc * n_cost) + c) in
          if v > 0 then
            Buffer.add_string buf
              (Printf.sprintf "%soptimized;%s;pc%d:%s;%s %d\n" pre a.name pc
                 a.labels.(pc) cost_names.(c) v)
        done
      done)
    (sorted_accs t.opt_accs);
  let scale v = int_of_float (Float.round (float_of_int v *. baseline_cpi)) in
  List.iter
    (fun a ->
      Array.iteri
        (fun pc v ->
          if v > 0 && pc < acc_pcs a then
            Buffer.add_string buf
              (Printf.sprintf "%sbaseline;%s;pc%d:%s %d\n" pre a.name pc
                 a.labels.(pc) (scale v)))
        a.cells)
    (sorted_accs t.base_accs);
  Array.iteri
    (fun i v ->
      if v > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%sbaseline;(runtime);%s %d\n" pre extra_names.(i)
             (scale v)))
    t.extras;
  Buffer.contents buf

let parse_folded s : ((string list * int) list, string) result =
  let exception Bad of string in
  try
    Ok
      (List.filter_map
         (fun line ->
           if String.trim line = "" then None
           else
             match String.rindex_opt line ' ' with
             | None -> raise (Bad ("no sample count: " ^ line))
             | Some i -> (
               let frames =
                 String.split_on_char ';' (String.sub line 0 i)
               in
               let count = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt count with
               | None -> raise (Bad ("bad sample count: " ^ line))
               | Some n ->
                 if frames = [] || List.exists (fun f -> f = "") frames then
                   raise (Bad ("empty frame: " ^ line));
                 Some (frames, n)))
         (String.split_on_char '\n' s))
  with Bad m -> Error m

(* --- summary JSON --- *)

module J = Tce_obs.Json

let tally_json a =
  J.Obj (Array.to_list (Array.map (fun (k, v) -> (k, J.Int v)) a))

let summary_to_json (s : summary) : J.t =
  J.Obj
    [
      ("program", J.Str s.program);
      ("mechanism", J.Bool s.mechanism);
      ("machine_cycles", J.Int s.machine_cycles);
      ("baseline_instrs", J.Int s.baseline_instrs);
      ("baseline_cpi", J.Float s.baseline_cpi);
      ("total_cycles", J.Float s.total_cycles);
      ("by_cost", tally_json s.by_cost);
      ("by_label", tally_json s.by_label);
      ("base_by_label", tally_json s.base_by_label);
      ( "top_sites",
        J.List
          (List.map
             (fun st ->
               J.Obj
                 [
                   ("fn", J.Str st.s_fn);
                   ("pc", J.Int st.s_pc);
                   ("label", J.Str st.s_label);
                   ("cycles", J.Int st.s_cycles);
                 ])
             s.top_sites) );
    ]

let ( let* ) = Result.bind

(* a tally is an object of integer counts, in order *)
let tally = function
  | J.Obj kvs ->
    let count (k, v) = Option.map (fun n -> (k, n)) (J.to_int v) in
    let counts = List.filter_map count kvs in
    if List.compare_lengths counts kvs = 0 then Some (Array.of_list counts)
    else None
  | _ -> None

let site_of_json it =
  let* s_fn = J.field "fn" J.to_str it in
  let* s_pc = J.field "pc" J.to_int it in
  let* s_label = J.field "label" J.to_str it in
  let* s_cycles = J.field "cycles" J.to_int it in
  Ok { s_fn; s_pc; s_label; s_cycles }

let summary_of_json (j : J.t) : (summary, string) result =
  let* program = J.field "program" J.to_str j in
  let* mechanism = J.field "mechanism" J.to_bool j in
  let* machine_cycles = J.field "machine_cycles" J.to_int j in
  let* baseline_instrs = J.field "baseline_instrs" J.to_int j in
  let* baseline_cpi = J.field "baseline_cpi" J.to_float j in
  let* total_cycles = J.field "total_cycles" J.to_float j in
  let* by_cost = J.field "by_cost" tally j in
  let* by_label = J.field "by_label" tally j in
  let* base_by_label = J.field "base_by_label" tally j in
  let* top_sites = J.field "top_sites" J.to_list j in
  let* top_sites = J.decode_all "top_sites" site_of_json top_sites in
  Ok
    {
      program;
      mechanism;
      machine_cycles;
      baseline_instrs;
      baseline_cpi;
      total_cycles;
      by_cost;
      by_label;
      base_by_label;
      top_sites;
    }
