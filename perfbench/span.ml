(** Outside-in spans: each span times one call into a layer's public
    function on the monotonic clock and counts the minor-heap words the
    call allocated. Spans accumulate per name. A traced phase then
    reconciles them against its own wall clock: the spans plus an explicit
    unattributed remainder must equal the wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns /. 1e9

type acc = { mutable ns : int; mutable words : float }

(** Span totals, in first-recorded order. *)
type t = { tbl : (string, acc) Hashtbl.t; mutable order : string list }

let create () = { tbl = Hashtbl.create 32; order = [] }

let acc t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None ->
    let a = { ns = 0; words = 0.0 } in
    Hashtbl.replace t.tbl name a;
    t.order <- t.order @ [ name ];
    a

(** [time t name f] runs [f ()] as one span of [name]. *)
let time t name f =
  let a = acc t name in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  a.ns <- a.ns + (t1 - t0);
  a.words <- a.words +. (w1 -. w0);
  r

let ns t name = match Hashtbl.find_opt t.tbl name with Some a -> a.ns | None -> 0
let seconds t name = seconds_of_ns (ns t name)

(** Minor-heap words allocated inside the span, in millions. *)
let alloc_mw t name =
  match Hashtbl.find_opt t.tbl name with Some a -> a.words /. 1e6 | None -> 0.0

let names t = t.order
let totals t = List.map (fun n -> (n, ns t n)) t.order

(** The traced wall clock, accumulated over the intervals a traced phase
    runs in (replays between intervals are not part of it). *)
type wall = { mutable wall_ns : int }

let wall () = { wall_ns = 0 }

let interval w f =
  let t0 = now_ns () in
  let r = f () in
  w.wall_ns <- w.wall_ns + (now_ns () - t0);
  r

(** [reconcile ~max_share ~wall_ns spans] is the unattributed remainder
    [wall_ns - sum spans] in nanoseconds. It is an error when the spans
    overrun the wall clock (they overlap, or a span escaped its interval)
    or when the remainder exceeds [max_share] of the wall time (a layer
    the trace does not see). *)
let reconcile ~max_share ~wall_ns (spans : (string * int) list) :
    (int, string) result =
  let attributed = List.fold_left (fun s (_, ns) -> s + ns) 0 spans in
  let un = wall_ns - attributed in
  if wall_ns <= 0 then Error "traced wall time is not positive"
  else if un < 0 then
    Error
      (Printf.sprintf
         "spans overrun the traced wall clock: %d ns attributed, %d ns wall"
         attributed wall_ns)
  else if float_of_int un > max_share *. float_of_int wall_ns then
    Error
      (Printf.sprintf
         "unattributed time %.4fs is %.2f%% of the traced wall %.4fs (limit \
          %.2f%%)"
         (seconds_of_ns un)
         (100.0 *. float_of_int un /. float_of_int wall_ns)
         (seconds_of_ns wall_ns) (100.0 *. max_share))
  else Ok un

(** {!reconcile} of [t] against [w], failing loudly for [what]. *)
let reconcile_exn ~what ~max_share w t =
  match reconcile ~max_share ~wall_ns:w.wall_ns (totals t) with
  | Ok un -> un
  | Error e -> failwith (what ^ " trace does not reconcile: " ^ e)
