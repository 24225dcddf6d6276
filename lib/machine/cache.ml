(** Set-associative cache timing model (LRU, write-allocate). Tracks hits
    and misses only — data lives in [Tce_vm.Mem]; this is purely the timing
    side. Used for L1I, L1D and L2. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = {
  line_bits : int;
  nsets : int;
  set_mask : int;
      (** [nsets - 1] when [nsets] is a power of two (every Table 2
          geometry), so set selection is a mask instead of a [mod]; -1
          otherwise *)
  ways : int;
  tags : int array array;  (** [tags.(set).(way)]; -1 = invalid *)
  lru : int array array;
  mru : int array;
      (** [mru.(set)]: the way last hit or filled in [set], tried before
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
    tags = Array.init nsets (fun _ -> Array.make ways (-1));
    lru = Array.init nsets (fun _ -> Array.make ways 0);
    mru = Array.make nsets 0;
    clock = 0;
    stats = { accesses = 0; hits = 0; misses = 0 };
  }

(* line >= 0 always (addresses are non-negative), so the mask is exactly
   [line mod nsets]. *)
let set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

(* The way of [tags] holding [line], or -1. *)
let rec scan (tags : int array) ways (line : int) w =
  if w >= ways then -1
  else if Array.unsafe_get tags w = line then w
  else scan tags ways line (w + 1)

(* The victim way: the last empty way if any, else the first way with the
   strictly smallest LRU stamp. *)
let rec pick (tags : int array) (lru : int array) ways w v =
  if w >= ways then v
  else if Array.unsafe_get tags w = -1 then pick tags lru ways (w + 1) w
  else if
    Array.unsafe_get tags v <> -1
    && Array.unsafe_get lru w < Array.unsafe_get lru v
  then pick tags lru ways (w + 1) w
  else pick tags lru ways (w + 1) v

let fill t set tags lru line =
  let victim = pick tags lru t.ways 0 0 in
  tags.(victim) <- line;
  lru.(victim) <- t.clock;
  Array.unsafe_set t.mru set victim

(* The way of [tags] holding [line], or -1: the set's MRU way first. A line
   lives in at most one way, so a matching MRU tag is the way [scan] would
   return. *)
let find t set tags line =
  let m = Array.unsafe_get t.mru set in
  if Array.unsafe_get tags m = line then m else scan tags t.ways line 0

(** Access the line containing [addr]; fills on miss. Returns [true] on hit.

    [scan] and [pick] are top-level tail-recursive functions over [int]
    arrays, so an access — hit or miss — allocates nothing: no ref cells,
    no closure (a local [let rec] capturing [tags] and [line] would
    allocate one per call) and no polymorphic compare. A line lives in at
    most one way, so the early-exit [scan] is equivalent to the reference
    full scan, and the victim choice is bit-identical to the reference
    model. The MRU probe in [find] answers a repeat touch of a line with
    one compare. *)
let access t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let hw = find t set tags line in
  if hw >= 0 then begin
    Array.unsafe_set lru hw t.clock;
    Array.unsafe_set t.mru set hw;
    t.stats.hits <- t.stats.hits + 1
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    fill t set tags lru line
  end;
  hw >= 0

(** Insert the line containing [addr] without touching statistics (used to
    model allocation into a cache-resident nursery; see DESIGN.md). *)
let insert t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  t.clock <- t.clock + 1;
  if find t set tags line < 0 then fill t set tags lru line

let hit_rate t =
  if t.stats.accesses = 0 then 1.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0
