(** Set-associative cache timing model (LRU, write-allocate). Tracks hits
    and misses only — data lives in [Tce_vm.Mem]; this is purely the timing
    side. Used for L1I, L1D and L2.

    The ways of every set live in flat [int] arrays indexed by slot
    [set * ways + way]: one bounds-free load per probe instead of a set
    array's header and a second indirection. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = {
  line_bits : int;
  nsets : int;
  set_mask : int;
      (** [nsets - 1] when [nsets] is a power of two (every Table 2
          geometry), so set selection is a mask instead of a [mod]; -1
          otherwise *)
  ways : int;
  tags : int array;  (** [tags.(slot)]: the line held there; -1 = invalid *)
  lru : int array;  (** [lru.(slot)]: the clock of its last hit or fill *)
  ready : int array;
      (** [ready.(slot)]: the cycle the line's fill completes, kept for the
          machine's MSHR merging ({!set_ready}); 0 after a fill *)
  mru : int array;
      (** [mru.(set)]: the slot last hit or filled in [set], tried before
          [scan]; a guess confirmed by its tag compare, never trusted *)
  mutable clock : int;
  stats : stats;
}

let log2_exact n =
  let rec go n b = if n <= 1 then b else go (n / 2) (b + 1) in
  go n 0

let create ~size_kb ~ways ~line_bytes =
  let lines = size_kb * 1024 / line_bytes in
  let nsets = max 1 (lines / ways) in
  {
    line_bits = log2_exact line_bytes;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    ways;
    tags = Array.make (nsets * ways) (-1);
    lru = Array.make (nsets * ways) 0;
    ready = Array.make (nsets * ways) 0;
    mru = Array.init nsets (fun set -> set * ways);
    clock = 0;
    stats = { accesses = 0; hits = 0; misses = 0 };
  }

(* line >= 0 always (addresses are non-negative), so the mask is exactly
   [line mod nsets]. *)
let set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

(* The slot in [s, stop) holding [line], or -1. *)
let rec scan (tags : int array) stop (line : int) s =
  if s >= stop then -1
  else if Array.unsafe_get tags s = line then s
  else scan tags stop line (s + 1)

(* The victim slot in [s, stop): the last empty slot if any, else the first
   slot with the strictly smallest LRU stamp. *)
let rec pick (tags : int array) (lru : int array) stop s v =
  if s >= stop then v
  else if Array.unsafe_get tags s = -1 then pick tags lru stop (s + 1) s
  else if
    Array.unsafe_get tags v <> -1
    && Array.unsafe_get lru s < Array.unsafe_get lru v
  then pick tags lru stop (s + 1) s
  else pick tags lru stop (s + 1) v

(* Fill [line] into the victim slot of [set], whose first slot is [base];
   returns the slot. *)
let fill t set base line =
  let victim = pick t.tags t.lru (base + t.ways) base base in
  Array.unsafe_set t.tags victim line;
  Array.unsafe_set t.lru victim t.clock;
  Array.unsafe_set t.ready victim 0;
  Array.unsafe_set t.mru set victim;
  victim

(* The slot holding [line] in [set], or -1: the set's MRU slot first. A line
   lives in at most one way, so a matching MRU tag is the slot [scan] would
   return. *)
let find t set base line =
  let m = Array.unsafe_get t.mru set in
  if Array.unsafe_get t.tags m = line then m
  else scan t.tags (base + t.ways) line base

(** Access the line containing [addr]; fills on miss. Returns the line's
    slot on a hit and [lnot slot] (< 0) on a miss, [slot] being where the
    line was filled.

    [scan] and [pick] are top-level tail-recursive functions over [int]
    arrays, so an access — hit or miss — allocates nothing: no ref cells,
    no closure (a local [let rec] capturing [tags] and [line] would
    allocate one per call) and no polymorphic compare. A line lives in at
    most one way, so the early-exit [scan] is equivalent to the reference
    full scan, and the victim choice is bit-identical to the reference
    model. The MRU probe in [find] answers a repeat touch of a line with
    one compare. *)
let access_slot t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let hs = find t set base line in
  if hs >= 0 then begin
    Array.unsafe_set t.lru hs t.clock;
    Array.unsafe_set t.mru set hs;
    t.stats.hits <- t.stats.hits + 1;
    hs
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    lnot (fill t set base line)
  end

(** Access the line containing [addr]; fills on miss. Returns [true] on hit. *)
let access t addr = access_slot t addr >= 0

(** Insert the line containing [addr] without touching statistics (used to
    model allocation into a cache-resident nursery; see DESIGN.md). Returns
    the slot it filled, or -1 when the line was already resident (which
    leaves its LRU stamp alone). *)
let insert t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  if find t set base line < 0 then fill t set base line else -1

let ready t slot = t.ready.(slot)
let set_ready t slot cycle = t.ready.(slot) <- cycle

let hit_rate t =
  if t.stats.accesses = 0 then 1.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0
