(** Simulated byte-addressable memory. Backing store is a growable array of
    8-byte words indexed by [byte_addr / 8]; all accesses are word-aligned
    (the engine only ever issues aligned word accesses, like V8 does for
    tagged slots). Addresses double as the physical addresses seen by the
    cache hierarchy of the timing simulator. *)

type t = {
  mutable words : int array;
  mutable next_free : int;  (** bump pointer, byte address *)
  base : int;
}

let default_base = 0x10000

let create ?(base = default_base) ?(capacity_words = 1 lsl 16) () =
  { words = Array.make capacity_words 0; next_free = base; base }

let word_index t addr =
  if addr land 7 <> 0 then invalid_arg (Printf.sprintf "Mem: unaligned access 0x%x" addr);
  if addr < t.base then invalid_arg (Printf.sprintf "Mem: access below heap base 0x%x" addr);
  (addr - t.base) / 8

let ensure t idx =
  let n = Array.length t.words in
  if idx >= n then begin
    let n' = max (idx + 1) (n * 2) in
    let words = Array.make n' 0 in
    Array.blit t.words 0 words 0 n;
    t.words <- words
  end

let load_slow t addr =
  let idx = word_index t addr in
  ensure t idx;
  t.words.(idx)

(** Aligned, in-bounds accesses — everything after warm-up — take a
    three-test fast path; anything else (including reads past the current
    backing array, which grow it and return 0) falls back to the checked
    slow path with identical semantics. *)
let load t addr =
  let idx = (addr - t.base) lsr 3 in
  if addr land 7 = 0 && addr >= t.base && idx < Array.length t.words then
    Array.unsafe_get t.words idx
  else load_slow t addr

let store_slow t addr v =
  let idx = word_index t addr in
  ensure t idx;
  t.words.(idx) <- v

let store t addr v =
  let idx = (addr - t.base) lsr 3 in
  if addr land 7 = 0 && addr >= t.base && idx < Array.length t.words then
    Array.unsafe_set t.words idx v
  else store_slow t addr v

(** Bump-allocate [bytes], aligned to [align] (a power of two). Returns the
    byte address. There is no collector: the reproduction uses a bump
    allocator (see DESIGN.md — GC is "Rest of Code" in the paper and
    orthogonal to the mechanism). *)
let allocate t ~bytes ~align =
  if align land (align - 1) <> 0 then invalid_arg "Mem.allocate: align not a power of 2";
  let addr = (t.next_free + align - 1) land lnot (align - 1) in
  t.next_free <- addr + bytes;
  ensure t (word_index t (addr + ((bytes + 7) / 8 * 8) - 8) + 1);
  addr
