(** The Class List (paper §4.2.1.1): the in-memory software structure backing
    the Class Cache. For every hidden class x cache line it records, per
    property slot:

    - InitMap: has any object ever written this slot?
    - ValidMap: have all writes so far stored values of one single type?
      (one-way: a cleared bit is never set again)
    - SpeculateMap: does at least one optimized function rely on this slot
      being monomorphic?
    - Prop1-7: the profiled ClassID per slot (0xFF = SMI sentinel);
      slot 2 of line 0 profiles the type of the objects *inside* the
      elements array (paper Table 1's Prop2 / NodeList example).
    - FunctionList: per slot, the functions that speculated on it.

    Entries are indexed by [ClassID ‖ Line] (8+8 bits → 2^16 entries) and sit
    in one contiguous simulated-memory region, pointed to by a special
    register, so Class Cache misses are real memory traffic. *)

open Tce_support

type entry = {
  mutable init_map : Bytemap.t;
  mutable valid_map : Bytemap.t;
  mutable speculate_map : Bytemap.t;
  props : int array;  (** length 8; positions 1..7 used, [pos 0] is the line header *)
  func_lists : int list array;  (** per position: ids of speculating functions *)
}

(** Bytes of simulated memory charged per entry (maps + props + tag word). *)
let entry_bytes = 16

(** Hardware-geometry knob: how many property positions per line the Class
    List tracks (the paper's design uses all 7; a cheaper design could
    profile fewer per-line slots and let the rest fall back to checked
    execution). Positions above [tracked_positions] are never profiled,
    never claimed monomorphic, and never speculated on. *)
type config = { tracked_positions : int }

let default_config = { tracked_positions = 7 }

type t = {
  entries : entry option array;  (** 2^16, lazily materialized *)
  base_addr : int;  (** base of the Class List region in simulated memory *)
  mem : Tce_vm.Mem.t;
  tracked : int;  (** positions 1..tracked are profiled; the rest are inert *)
  mutable parent_of : int -> int option;
      (** transition parent of a ClassID (set by the runtime) *)
  mutable children_of : int -> int list;
      (** transition children of a ClassID (set by the runtime) *)
}

let index ~classid ~line =
  if classid < 0 || classid > 0xff then invalid_arg "Class_list: classid out of range";
  if line < 0 || line > 0xff then invalid_arg "Class_list: line out of range";
  (classid lsl 8) lor line

let create ?(config = default_config) mem =
  if config.tracked_positions < 1 || config.tracked_positions > 7 then
    invalid_arg "Class_list.create: tracked_positions must be in 1..7";
  let base_addr =
    Tce_vm.Mem.allocate mem ~bytes:(65536 * entry_bytes) ~align:64
  in
  {
    entries = Array.make 65536 None;
    base_addr;
    mem;
    tracked = config.tracked_positions;
    parent_of = (fun _ -> None);
    children_of = (fun _ -> []);
  }

(** How many positions per line this instance profiles. *)
let tracked t = t.tracked

(** Is [pos] within this instance's profiled range? *)
let is_tracked t ~pos = pos >= 1 && pos <= t.tracked

(** Simulated address of the entry (for charging miss traffic). *)
let entry_addr t ~classid ~line = t.base_addr + (index ~classid ~line * entry_bytes)

let fresh_entry () =
  {
    init_map = Bytemap.empty;
    valid_map = Bytemap.full;
    speculate_map = Bytemap.empty;
    props = Array.make 8 0;
    func_lists = Array.make 8 [];
  }

(** Materialize an entry. New entries inherit the profiling state
    (InitMap/ValidMap/Props — not speculation) of the transition parent's
    entry: the runtime seeds a new class's Class List rows from the class it
    transitioned from, so that properties written during construction are
    profiled for the finished shape too (a documented runtime-side
    strengthening; see DESIGN.md). *)
let rec entry t ~classid ~line =
  let i = index ~classid ~line in
  match t.entries.(i) with
  | Some e -> e
  | None ->
    let e = fresh_entry () in
    (match t.parent_of classid with
    | Some p when p <> classid ->
      let pe = entry t ~classid:p ~line in
      e.init_map <- pe.init_map;
      e.valid_map <- pe.valid_map;
      Array.blit pe.props 0 e.props 0 8
    | _ -> ());
    t.entries.(i) <- Some e;
    e

let find t ~classid ~line = t.entries.(index ~classid ~line)

(** Is the slot profiled monomorphic (initialized and still valid)? Queries
    materialize the entry so transition-parent profiles are inherited even
    for classes whose own lines were never stored to. *)
let is_monomorphic t ~classid ~line ~pos =
  is_tracked t ~pos
  &&
  let e = entry t ~classid ~line in
  Bytemap.get e.init_map pos && Bytemap.get e.valid_map pos

(** Is the slot's ValidMap bit still set? (Uninitialized slots are vacuously
    valid — the paper emits special stores for any slot "still considered
    monomorphic".) *)
let is_valid t ~classid ~line ~pos =
  is_tracked t ~pos && Bytemap.get (entry t ~classid ~line).valid_map pos

(** Like {!is_valid} but non-materializing: absent entries are vacuously
    valid. Used by the engine's retire-path invariant check, which must not
    perturb lazy parent-inheritance by materializing entries. *)
let is_valid_peek t ~classid ~line ~pos =
  is_tracked t ~pos
  &&
  match t.entries.(index ~classid ~line) with
  | None -> true
  | Some e -> Bytemap.get e.valid_map pos

(** Non-materializing view of the value class the Class List would claim
    for a monomorphic slot, following the same transition-parent
    inheritance as {!entry} (the nearest materialized ancestor's profile)
    but without mutating. [None] when no ancestor claims the slot
    initialized-and-valid. Used by the engine's retire-path invariant
    check to cross-examine the Class List against the ground-truth
    oracle. *)
let claimed_class_peek t ~classid ~line ~pos =
  if not (is_tracked t ~pos) then None
  else
  let rec walk classid =
    match t.entries.(index ~classid ~line) with
    | Some e ->
      if Bytemap.get e.init_map pos && Bytemap.get e.valid_map pos then
        Some e.props.(pos)
      else None
    | None -> (
      match t.parent_of classid with
      | Some p when p <> classid -> walk p
      | _ -> None)
  in
  walk classid

(** Fault injection only (Tce_fault [Cl_flip_*]): flip one bit of one map,
    modelling a corrupted or aliased Class List entry. Never called in
    unfaulted runs. *)
type map_id = Init_map | Valid_map | Speculate_map

let corrupt_flip t ~classid ~line ~pos ~map =
  let e = entry t ~classid ~line in
  let flip m =
    if Bytemap.get m pos then Bytemap.clear m pos else Bytemap.set m pos
  in
  match map with
  | Init_map -> e.init_map <- flip e.init_map
  | Valid_map -> e.valid_map <- flip e.valid_map
  | Speculate_map -> e.speculate_map <- flip e.speculate_map

(** The profiled ClassID of a monomorphic slot. *)
let profiled_class t ~classid ~line ~pos =
  if is_monomorphic t ~classid ~line ~pos then
    Some (entry t ~classid ~line).props.(pos)
  else None

(** Record that optimized function [fn] speculates on this slot: sets the
    SpeculateMap bit and appends to the FunctionList. *)
let add_speculation t ~classid ~line ~pos ~fn =
  let e = entry t ~classid ~line in
  e.speculate_map <- Bytemap.set e.speculate_map pos;
  if not (List.mem fn e.func_lists.(pos)) then
    e.func_lists.(pos) <- fn :: e.func_lists.(pos)

(** Runtime handling after a misspeculation exception: the offending slot's
    SpeculateMap bit is cleared and its FunctionList drained (paper
    §4.2.1.3). Returns the functions to deoptimize. *)
let take_speculators t ~classid ~line ~pos =
  let e = entry t ~classid ~line in
  let fns = e.func_lists.(pos) in
  e.func_lists.(pos) <- [];
  e.speculate_map <- Bytemap.clear e.speculate_map pos;
  fns

(** Remove [fn] from every FunctionList (used when a function is discarded
    or recompiled so stale registrations don't trigger spurious deopts). *)
let remove_function t ~fn =
  Array.iter
    (function
      | None -> ()
      | Some e ->
        Array.iteri
          (fun pos l ->
            if List.mem fn l then begin
              e.func_lists.(pos) <- List.filter (( <> ) fn) l;
              if e.func_lists.(pos) = [] then
                e.speculate_map <- Bytemap.clear e.speculate_map pos
            end)
          e.func_lists)
    t.entries

(* --- profiling update (the logic inside a Class Cache access) --- *)

type update_outcome =
  | First_profile  (** InitMap bit was 0: the type is recorded *)
  | Still_mono  (** stored type matches the profile *)
  | Now_polymorphic of { was_speculated : bool; exception_raised : bool }
      (** profile broken; exception iff SpeculateMap bit was set *)
  | Already_poly  (** ValidMap bit was already 0 *)

(** Apply the paper's Fig. 6 update for a store of a value with class
    [value_classid] into slot [pos] of [classid]/[line]: the *semantic*
    update of one entry. *)
let update t ~classid ~line ~pos ~value_classid =
  if pos < 1 || pos > t.tracked then
    invalid_arg "Class_list.update: pos must be in 1..tracked_positions";
  let e = entry t ~classid ~line in
  if not (Bytemap.get e.init_map pos) then begin
    e.init_map <- Bytemap.set e.init_map pos;
    e.props.(pos) <- value_classid;
    First_profile
  end
  else if not (Bytemap.get e.valid_map pos) then Already_poly
  else if e.props.(pos) = value_classid then Still_mono
  else begin
    e.valid_map <- Bytemap.clear e.valid_map pos;
    let was_speculated = Bytemap.get e.speculate_map pos in
    Now_polymorphic { was_speculated; exception_raised = was_speculated }
  end

(** Full store-event application: updates the entry for the store-time
    class and propagates the observed value class down the transition tree
    (objects of [classid] may later transition to a descendant class, so a
    descendant's profile that disagrees with this store must be
    invalidated). Returns the own-entry outcome and every speculating
    function to deoptimize (own + descendants). *)
let rec apply t ~classid ~line ~pos ~value_classid : update_outcome * int list =
  let outcome = update t ~classid ~line ~pos ~value_classid in
  let own_fns =
    match outcome with
    | Now_polymorphic { exception_raised = true; _ } ->
      take_speculators t ~classid ~line ~pos
    | _ -> []
  in
  let child_fns =
    List.concat_map
      (fun c' ->
        if c' = classid then []
        else
          match t.entries.(index ~classid:c' ~line) with
          | Some _ ->
            snd (apply t ~classid:c' ~line ~pos ~value_classid)
          | None -> [] (* lazy inheritance will copy the updated state *))
      (t.children_of classid)
  in
  (outcome, own_fns @ child_fns)

(** Retire a value class whose objects mutated their hidden class in place
    (elements-kind transitions): every profile naming it is invalidated —
    the analog of V8 discarding code dependent on a map that lost
    stability. Returns the speculating functions to deoptimize. *)
let retire_value_class t ~value_classid =
  let fns = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some e ->
        for pos = 1 to t.tracked do
          if
            Bytemap.get e.init_map pos
            && Bytemap.get e.valid_map pos
            && e.props.(pos) = value_classid
          then begin
            e.valid_map <- Bytemap.clear e.valid_map pos;
            if Bytemap.get e.speculate_map pos then
              fns :=
                take_speculators t ~classid:(i lsr 8) ~line:(i land 0xff) ~pos
                @ !fns
          end
        done)
    t.entries;
  !fns

(* --- pretty printing (paper Table 1) --- *)

let pp_entry ~class_name ~fn_name ppf (classid, line, e) =
  let prop_str pos =
    if Bytemap.get e.init_map pos then class_name e.props.(pos) else "-"
  in
  Fmt.pf ppf "%-24s %a %a %a  %s"
    (Printf.sprintf "%s, line %d" (class_name classid) line)
    Bytemap.pp e.init_map Bytemap.pp e.valid_map Bytemap.pp e.speculate_map
    (String.concat " "
       (List.map (fun pos -> Printf.sprintf "P%d=%s" pos (prop_str pos))
          [ 1; 2; 3; 4; 5; 6; 7 ]));
  let fns =
    List.concat_map
      (fun pos ->
        List.map
          (fun fn -> Printf.sprintf "P%d:%s" pos (fn_name fn))
          e.func_lists.(pos))
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  if fns <> [] then Fmt.pf ppf "  [%s]" (String.concat ", " fns)

(** All materialized entries as [(classid, line, entry)]. *)
let dump t =
  let out = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some e -> out := (i lsr 8, i land 0xff, e) :: !out)
    t.entries;
  List.rev !out
