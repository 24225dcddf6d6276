(** Statistics helpers for the metrics layer. *)

val mean : float list -> float

(** Geometric mean of the positive values (non-positive entries skipped). *)
val geomean : float list -> float

(** [100 * num / den] (0 when [den] is 0). *)
val percent : int -> int -> float

(** The paper's "improvement in number of cycles":
    [(base - opt) / base * 100]. *)
val improvement : base:float -> opt:float -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float list -> summary

(** [(mean, ci95)] of a sample. *)
val mean_ci95 : float list -> float * float

(** Relative change of [cur] against [base] in percent:
    [(cur - base) / base * 100] (0 when [base] is 0). Positive means [cur]
    is larger — for cycle counts, a regression. *)
val rel_delta_pct : base:float -> cur:float -> float
