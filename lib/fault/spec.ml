(** Fault-spec parsing (see spec.mli). *)

type trigger = Prob of float | At of int

type rule = { point : Point.t; trigger : trigger; param : int option }

type t = rule list

let ( let* ) = Result.bind

let parse_point name =
  match Point.of_name name with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown fault point %S (known: %s)" name
         (String.concat ", " (List.map Point.name Point.all)))

let parse_prob s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (Printf.sprintf "probability %S must be a float in [0, 1]" s)

let parse_param s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "parameter %S must be a positive integer" s)

let parse_rule tok =
  match String.index_opt tok '@' with
  | Some i ->
    (* one-shot trigger: point@N fires on the Nth opportunity *)
    let* point = parse_point (String.sub tok 0 i) in
    let* n = parse_param (String.sub tok (i + 1) (String.length tok - i - 1)) in
    Ok { point; trigger = At n; param = None }
  | None -> (
    match String.split_on_char ':' tok with
    | [ name ] ->
      let* point = parse_point name in
      Ok { point; trigger = Prob 1.0; param = None }
    | [ name; prob ] ->
      let* point = parse_point name in
      let* p = parse_prob prob in
      Ok { point; trigger = Prob p; param = None }
    | [ name; prob; param ] ->
      let* point = parse_point name in
      let* p = parse_prob prob in
      let* q = parse_param param in
      Ok { point; trigger = Prob p; param = Some q }
    | _ -> Error (Printf.sprintf "cannot parse fault rule %S" tok))

let parse s =
  let toks =
    List.filter
      (fun tok -> tok <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  if toks = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest ->
        let* r = parse_rule tok in
        if List.exists (fun r' -> r'.point = r.point) acc then
          Error
            (Printf.sprintf "fault point %s appears twice in the spec"
               (Point.name r.point))
        else go (r :: acc) rest
    in
    go [] toks

(* The shortest [%.Ng] that parses back to [p]: the default rates print as
   [%g] prints them, and rates that differ past the 6th digit stay apart. *)
let prob_to_string p =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits p in
    if digits >= 17 || float_of_string s = p then s else go (digits + 1)
  in
  go 1

let rule_to_string r =
  match r.trigger with
  | At n -> Printf.sprintf "%s@%d" (Point.name r.point) n
  | Prob 1.0 when r.param = None -> Point.name r.point
  | Prob p -> (
    let base = Printf.sprintf "%s:%s" (Point.name r.point) (prob_to_string p) in
    match r.param with None -> base | Some q -> Printf.sprintf "%s:%d" base q)

let to_string rules = String.concat "," (List.map rule_to_string rules)

(* Default campaign rates: high enough that every point fires on suite-sized
   workloads, low enough that an injected run still makes progress. Delivery
   of delayed exceptions defaults to 8 Class Cache accesses late. *)
let default =
  [
    { point = Point.Cc_evict; trigger = Prob 0.02; param = None };
    { point = Point.Cc_drop_update; trigger = Prob 0.05; param = None };
    { point = Point.Cl_flip_init; trigger = Prob 0.005; param = None };
    { point = Point.Cl_flip_valid; trigger = Prob 0.005; param = None };
    { point = Point.Cl_flip_speculate; trigger = Prob 0.005; param = None };
    { point = Point.Cc_spurious_exn; trigger = Prob 0.005; param = None };
    { point = Point.Cc_delayed_exn; trigger = Prob 0.5; param = Some 8 };
    { point = Point.Lost_deopt; trigger = Prob 0.5; param = None };
    { point = Point.Osr_fail; trigger = Prob 0.25; param = None };
  ]
