(** Deterministic splitmix64 PRNG. All randomness in workload generators and
    property tests flows through this so that experiment runs are exactly
    reproducible (the timing simulator is deterministic given the instruction
    stream). *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** [float t] is uniform in [0, 1). *)
let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int r /. 9007199254740992.0 (* 2^53 *)

(** Bernoulli draw with probability [p]. *)
let chance t p = float t < p

(** Fisher-Yates shuffle (in place). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
