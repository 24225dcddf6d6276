(** Fully-associative TLB timing model (LRU over 4 KB pages).

    The reference model is a linear scan of every entry per access; with the
    paper's 256-entry DTLB that scan dominated the simulator's wall clock.
    A page -> entry-index side table ({!Tce_support.Int_table}) answers the
    (overwhelmingly common) hit case in O(1). The miss path keeps the
    original full scan so the victim choice — last empty entry if any entry
    is empty, else the first entry with the strictly smallest LRU stamp —
    is bit-identical to the reference model. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = {
  entries : int;
  pages : int array;
  lru : int array;
  mutable clock : int;
  stats : stats;
  idx : Tce_support.Int_table.t;  (** page -> entry index (hit fast path) *)
}

let page_bits = 12

let create ~entries =
  {
    entries;
    pages = Array.make entries (-1);
    lru = Array.make entries 0;
    clock = 0;
    stats = { accesses = 0; hits = 0; misses = 0 };
    idx = Tce_support.Int_table.create ~size:(2 * entries) ();
  }

(* The victim entry: the last empty entry if any, else the first with the
   strictly smallest LRU stamp. Top-level over [int] arrays, so a miss
   allocates no closure and compares immediates. *)
let rec pick (pages : int array) (lru : int array) entries i v =
  if i >= entries then v
  else if Array.unsafe_get pages i = -1 then pick pages lru entries (i + 1) i
  else if
    Array.unsafe_get pages v <> -1
    && Array.unsafe_get lru i < Array.unsafe_get lru v
  then pick pages lru entries (i + 1) i
  else pick pages lru entries (i + 1) v

let access t addr =
  let page = addr lsr page_bits in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let i = Tce_support.Int_table.find t.idx page (-1) in
  if i >= 0 then begin
    Array.unsafe_set t.lru i t.clock;
    t.stats.hits <- t.stats.hits + 1;
    true
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let victim = pick t.pages t.lru t.entries 0 0 in
    if t.pages.(victim) <> -1 then
      Tce_support.Int_table.remove t.idx t.pages.(victim);
    t.pages.(victim) <- page;
    t.lru.(victim) <- t.clock;
    Tce_support.Int_table.set t.idx page victim;
    false
  end

let hit_rate t =
  if t.stats.accesses = 0 then 1.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0
