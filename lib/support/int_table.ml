(** Open-addressed int -> int hash table for simulator hot paths (see
    int_table.mli). Linear probing over a power-of-two array; absent keys
    answer a caller-supplied default, so lookups allocate nothing (no
    [option], no boxing — unlike [Hashtbl.find_opt]). *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable live : int;  (** stored bindings *)
  mutable used : int;  (** live + tombstones (probe-chain occupancy) *)
  (* [min_int] / [min_int + 1] mark empty / deleted slots in [keys], so
     those two keys get dedicated out-of-band cells instead. *)
  mutable sp1 : bool;
  mutable sp1v : int;
  mutable sp2 : bool;
  mutable sp2v : int;
}

let empty_k = min_int
let tomb_k = min_int + 1

(* Fibonacci-style multiplicative hash; the xor-fold pushes the high-entropy
   product bits down into the masked range. *)
let hash k mask =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

let rec pow2_from c (n : int) = if c >= n then c else pow2_from (c * 2) n
let pow2_at_least n = pow2_from 8 n

let create ?(size = 16) () =
  let cap = pow2_at_least (max 8 size) in
  {
    keys = Array.make cap empty_k;
    vals = Array.make cap 0;
    mask = cap - 1;
    live = 0;
    used = 0;
    sp1 = false;
    sp1v = 0;
    sp2 = false;
    sp2v = 0;
  }

let length t = t.live + (if t.sp1 then 1 else 0) + if t.sp2 then 1 else 0

(* A top-level tail-recursive probe compiles to a loop with everything in
   registers, so a lookup allocates nothing. A local [let rec] capturing
   [keys], [k] and [default] would allocate its closure on every call; the
   [int] annotations keep [=] an immediate compare rather than the
   polymorphic one. *)
let rec probe (keys : int array) (vals : int array) mask (k : int)
    (default : int) i =
  let kk = Array.unsafe_get keys i in
  if kk = k then Array.unsafe_get vals i
  else if kk = empty_k then default
  else probe keys vals mask k default ((i + 1) land mask)

let find t k default =
  if k > tomb_k then probe t.keys t.vals t.mask k default (hash k t.mask)
  else if k = empty_k then (if t.sp1 then t.sp1v else default)
  else if t.sp2 then t.sp2v
  else default

let mem t k = find t k min_int <> min_int || find t k 0 <> 0

(* Re-place the live bindings into a fresh array of [cap] slots (drops
   tombstones). The fresh arrays are its only allocation: a loop, not an
   [Array.iteri] closure, since a TLB's page index is swept of tombstones
   over and over on the miss path. *)
let rehash t cap =
  let old_keys = t.keys and old_vals = t.vals in
  let keys = Array.make cap empty_k and vals = Array.make cap 0 in
  let mask = cap - 1 in
  for j = 0 to Array.length old_keys - 1 do
    let k = old_keys.(j) in
    if k > tomb_k then begin
      let i = ref (hash k mask) in
      while keys.(!i) <> empty_k do
        i := (!i + 1) land mask
      done;
      keys.(!i) <- k;
      vals.(!i) <- old_vals.(j)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.live

let set t k v =
  if k > tomb_k then begin
    (* keep probe chains short: grow (or sweep tombstones) at 3/4 load *)
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then
      rehash t (pow2_at_least (4 * (t.live + 1)));
    let keys = t.keys and mask = t.mask in
    let i = ref (hash k mask) in
    let slot = ref (-1) in
    let continue = ref true in
    while !continue do
      let kk = Array.unsafe_get keys !i in
      if kk = k then begin
        t.vals.(!i) <- v;
        continue := false
      end
      else if kk = empty_k then begin
        let j = if !slot >= 0 then !slot else !i in
        if !slot < 0 then t.used <- t.used + 1;
        keys.(j) <- k;
        t.vals.(j) <- v;
        t.live <- t.live + 1;
        continue := false
      end
      else begin
        if kk = tomb_k && !slot < 0 then slot := !i;
        i := (!i + 1) land mask
      end
    done
  end
  else if k = empty_k then begin
    t.sp1 <- true;
    t.sp1v <- v
  end
  else begin
    t.sp2 <- true;
    t.sp2v <- v
  end

let remove t k =
  if k > tomb_k then begin
    let keys = t.keys and mask = t.mask in
    let i = ref (hash k mask) in
    let continue = ref true in
    while !continue do
      let kk = Array.unsafe_get keys !i in
      if kk = k then begin
        keys.(!i) <- tomb_k;
        t.live <- t.live - 1;
        continue := false
      end
      else if kk = empty_k then continue := false
      else i := (!i + 1) land mask
    done
  end
  else if k = empty_k then t.sp1 <- false
  else t.sp2 <- false

let copy t =
  {
    keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    mask = t.mask;
    live = t.live;
    used = t.used;
    sp1 = t.sp1;
    sp1v = t.sp1v;
    sp2 = t.sp2;
    sp2v = t.sp2v;
  }

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_k;
  t.live <- 0;
  t.used <- 0;
  t.sp1 <- false;
  t.sp2 <- false

let iter f t =
  if t.sp1 then f empty_k t.sp1v;
  if t.sp2 then f tomb_k t.sp2v;
  Array.iteri (fun i k -> if k > tomb_k then f k t.vals.(i)) t.keys

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
