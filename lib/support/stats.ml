(** Small statistics helpers used by the metrics layer. *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Geometric mean of positive values; non-positive entries are skipped
    (matches how suite-average speedups are reported). *)
let geomean xs =
  let xs = List.filter (fun x -> x > 0.0) xs in
  match xs with
  | [] -> 0.0
  | _ ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let min_max = function
  | [] -> (0.0, 0.0)
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percent num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(** Speedup in percent of [base] relative to [opt]: how much faster [opt]
    is, expressed the way the paper does ("improvement in number of
    cycles"): [(base - opt) / base * 100]. *)
let improvement ~base ~opt =
  if base = 0.0 then 0.0 else (base -. opt) /. base *. 100.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize xs =
  match xs with
  | [] -> { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0 }
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
      /. float_of_int (List.length xs)
    in
    let lo, hi = min_max xs in
    { n = List.length xs; mean = m; stddev = sqrt var; min = lo; max = hi }

(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt n]); 0 when fewer than two samples. *)
let ci95 (s : summary) =
  if s.n < 2 then 0.0 else 1.96 *. s.stddev /. sqrt (float_of_int s.n)

(** [(mean, ci95)] of a sample, in one call. *)
let mean_ci95 xs =
  let s = summarize xs in
  (s.mean, ci95 s)

(** Relative change of [cur] against [base] in percent:
    [(cur - base) / base * 100]. Positive = [cur] is larger (for cycle
    counts: a regression). 0 when [base] is 0. *)
let rel_delta_pct ~base ~cur =
  if base = 0.0 then 0.0 else (cur -. base) /. base *. 100.0
