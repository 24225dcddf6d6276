(** The seeded fault injector (see injector.mli). *)

module Trace = Tce_obs.Trace

type rule_state = {
  rule : Spec.rule;
  mutable opportunities : int;
  mutable fires : int;
}

type t = {
  armed : bool;
  prng : Tce_support.Prng.t;
  rules : rule_state option array;  (** indexed by {!Point.index} *)
  mutable trace : Trace.t;
  mutable delayed : (int * int list) list;
      (** pending delayed exceptions: (accesses until delivery, victims) *)
  mutable lost : int list;  (** victims whose notification was dropped *)
  mutable delivered_late : int;
  mutable detections : int;
}

let null =
  {
    armed = false;
    prng = Tce_support.Prng.create 0;
    rules = Array.make Point.count None;
    trace = Trace.null;
    delayed = [];
    lost = [];
    delivered_late = 0;
    detections = 0;
  }

let create ?(trace = Trace.null) ~seed spec =
  let rules = Array.make Point.count None in
  List.iter
    (fun (r : Spec.rule) ->
      rules.(Point.index r.Spec.point) <-
        Some { rule = r; opportunities = 0; fires = 0 })
    spec;
  {
    armed = spec <> [];
    prng = Tce_support.Prng.create seed;
    rules;
    trace;
    delayed = [];
    lost = [];
    delivered_late = 0;
    detections = 0;
  }

let armed t = t.armed
let set_trace t tr = t.trace <- tr

let fire t ?(classid = -1) ?(line = -1) ?(pos = -1) point =
  match t.rules.(Point.index point) with
  | None -> false
  | Some rs ->
    rs.opportunities <- rs.opportunities + 1;
    let hit =
      match rs.rule.Spec.trigger with
      | Spec.Prob p -> Tce_support.Prng.chance t.prng p
      | Spec.At n -> rs.opportunities = n
    in
    if hit then begin
      rs.fires <- rs.fires + 1;
      if Trace.on t.trace then
        Trace.emit t.trace
          (Trace.Fault_injected { point = Point.name point; classid; line; pos })
    end;
    hit

(* Replaying [fire] on a fresh injector keeps the [Prob]/[At] semantics in
   one place: the draws are the ones a run armed with [[rule]] makes at its
   first [n] opportunities. *)
let quiet ~seed (rule : Spec.rule) ~opportunities:n =
  let t = create ~seed [ rule ] in
  let rec go i = i >= n || ((not (fire t rule.Spec.point)) && go (i + 1)) in
  go 0

let default_delay = 8

let delay t =
  match t.rules.(Point.index Point.Cc_delayed_exn) with
  | Some { rule = { Spec.param = Some q; _ }; _ } -> q
  | _ -> default_delay

let stash_lost t fns = t.lost <- fns @ t.lost
let lost t = t.lost

let stash_delayed t fns = t.delayed <- (delay t, fns) :: t.delayed

let tick_delayed t =
  if t.delayed = [] then []
  else begin
    let due, pending =
      List.partition_map
        (fun (n, fns) ->
          if n <= 1 then Either.Left fns else Either.Right (n - 1, fns))
        t.delayed
    in
    t.delayed <- pending;
    let fns = List.concat due in
    t.delivered_late <- t.delivered_late + List.length fns;
    fns
  end

let delivered_late t = t.delivered_late
let note_detected t = t.detections <- t.detections + 1
let detections t = t.detections

let fires t point =
  match t.rules.(Point.index point) with None -> 0 | Some rs -> rs.fires

let opportunities t point =
  match t.rules.(Point.index point) with
  | None -> 0
  | Some rs -> rs.opportunities

let total_fires t =
  Array.fold_left
    (fun acc -> function None -> acc | Some rs -> acc + rs.fires)
    0 t.rules

let counts t =
  List.filter_map
    (fun p ->
      match t.rules.(Point.index p) with
      | None -> None
      | Some rs -> Some (p, rs.fires))
    Point.all

let summary t =
  let parts =
    List.filter_map
      (fun (p, n) ->
        if n = 0 then None else Some (Printf.sprintf "%s=%d" (Point.name p) n))
      (counts t)
  in
  Printf.sprintf "fires=%d [%s] detections=%d late-deliveries=%d" (total_fires t)
    (String.concat " " parts) (detections t) (delivered_late t)
