(** Attribution reports (see aggregate.mli). *)

module J = Tce_obs.Json
module Table = Tce_support.Table

let report_kind = "attr-report"

(* --- kept-cause histogram --- *)

let cause_histogram (l : Ledger.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Ledger.site) ->
      match s.Ledger.decision with
      | Ledger.Removed -> ()
      | Ledger.Kept c ->
        let k = Ledger.keep_cause_name c in
        Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    (Ledger.sites l);
  List.sort
    (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let cause_table hist =
  if hist = [] then "(no kept checks)\n"
  else
    Table.render
      ~headers:[ "kept because"; "sites" ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) hist)

(* --- per-site verdicts --- *)

let kept_sites_text (l : Ledger.t) =
  let buf = Buffer.create 256 in
  let removed = Hashtbl.create 16 in
  List.iter
    (fun (s : Ledger.site) ->
      match s.Ledger.decision with
      | Ledger.Removed ->
        Hashtbl.replace removed s.Ledger.fn
          (1 + try Hashtbl.find removed s.Ledger.fn with Not_found -> 0)
      | Ledger.Kept c ->
        Buffer.add_string buf
          (Printf.sprintf "  kept    %-12s pc %-4d %-12s%s — %s%s\n"
             s.Ledger.fn s.Ledger.pc s.Ledger.kind
             (if s.Ledger.classid >= 0 then
                Printf.sprintf " class %d" s.Ledger.classid
              else "")
             (Ledger.keep_cause_name c)
             (if s.Ledger.note = "" then "" else " (" ^ s.Ledger.note ^ ")")))
    (Ledger.sites l);
  Hashtbl.fold (fun fn n acc -> (fn, n) :: acc) removed []
  |> List.sort compare
  |> List.iter (fun (fn, n) ->
         Buffer.add_string buf
           (Printf.sprintf "  removed %-12s %d check(s)\n" fn n));
  if Buffer.length buf = 0 then "(no check sites visited)\n"
  else Buffer.contents buf

(* --- deopt chains --- *)

let chain_text (c : Ledger.chain) =
  let respec fn =
    match List.assoc_opt fn c.Ledger.respec with
    | Some o -> o
    | None -> "not re-optimized"
  in
  Printf.sprintf "  cycle %d: %s (class %d, line %d, pos %d)\n    -> CC exception -> victims: %s\n%s"
    c.Ledger.at c.Ledger.store c.Ledger.classid c.Ledger.line c.Ledger.pos
    (match c.Ledger.victims with
    | [] -> "(none)"
    | vs -> String.concat ", " vs)
    (String.concat ""
       (List.map
          (fun fn -> Printf.sprintf "    -> %s: %s\n" fn (respec fn))
          c.Ledger.victims))

(* at most this many chains are printed in full *)
let max_chains = 10

let chains_text (l : Ledger.t) =
  let buf = Buffer.create 256 in
  let cs = Ledger.chains l in
  let n = List.length cs in
  List.iteri
    (fun i c -> if i < max_chains then Buffer.add_string buf (chain_text c))
    cs;
  if n > max_chains then
    Buffer.add_string buf (Printf.sprintf "  … %d more chain(s)\n" (n - max_chains));
  (* Plain deopts (no CC exception involved), as a reason histogram. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Ledger.deopt) ->
      let k = Reason.describe d.Ledger.reason in
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    (Ledger.deopts l);
  let hist =
    List.sort
      (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  if hist <> [] then begin
    Buffer.add_string buf "  deopt reasons:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "    %4d× %s\n" v k))
      hist
  end;
  if Buffer.length buf = 0 then "(no deopts)\n" else Buffer.contents buf

(* --- CC heatmap --- *)

let heatmap_text ~occupancy ~conflicts =
  let n = Array.length occupancy in
  let glyph v vmax =
    if vmax = 0 || v = 0 then '.'
    else
      let ramp = " .:-=+*#%@" in
      let i = 1 + (v * (String.length ramp - 2) / vmax) in
      ramp.[min i (String.length ramp - 1)]
  in
  let max_occ = Array.fold_left max 0 occupancy in
  let max_conf = Array.fold_left max 0 conflicts in
  let row label data vmax =
    let b = Buffer.create (n + 16) in
    Buffer.add_string b (Printf.sprintf "  %-10s " label);
    Array.iter (fun v -> Buffer.add_char b (glyph v vmax)) data;
    Buffer.add_string b (Printf.sprintf "  (max %d)\n" vmax);
    Buffer.contents b
  in
  Printf.sprintf "  set        %s\n%s%s"
    (String.init n (fun i -> if i mod 8 = 0 then Char.chr (48 + i / 8 mod 10) else ' '))
    (row "occupancy" occupancy max_occ)
    (row "conflicts" conflicts max_conf)

(* --- the --explain rendering --- *)

let executed_table checks_executed =
  Table.render
    ~headers:[ "check kind"; "executed (kept)" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) checks_executed)

let explain_text ~program ~checks_executed ?cc_occupancy ?cc_conflicts l =
  let buf = Buffer.create 1024 in
  let section title body =
    Buffer.add_string buf ("== " ^ title ^ " ==\n");
    Buffer.add_string buf body;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "attribution report: %s\n\n" program);
  section "checks executed by kind" (executed_table checks_executed);
  section "why checks were kept" (cause_table (cause_histogram l));
  section "check sites" (kept_sites_text l);
  section "deopt causal chains" (chains_text l);
  (match (cc_occupancy, cc_conflicts) with
  | Some occupancy, Some conflicts ->
    section "class cache sets" (heatmap_text ~occupancy ~conflicts)
  | _ -> ());
  let pins = Ledger.pins l in
  if pins <> [] then
    section "backoff pins"
      (String.concat ""
         (List.map
            (fun (fn, e) -> Printf.sprintf "  %s (exponent %d)\n" fn e)
            pins));
  Buffer.contents buf

(* --- JSON --- *)

let site_json (s : Ledger.site) =
  J.Obj
    [
      ("fn", J.Str s.Ledger.fn);
      ("pc", J.Int s.Ledger.pc);
      ("kind", J.Str s.Ledger.kind);
      ("classid", J.Int s.Ledger.classid);
      ( "decision",
        J.Str
          (match s.Ledger.decision with
          | Ledger.Removed -> "removed"
          | Ledger.Kept c -> "kept:" ^ Ledger.keep_cause_name c) );
      ("note", J.Str s.Ledger.note);
    ]

let chain_json (c : Ledger.chain) =
  J.Obj
    [
      ("at", J.Int c.Ledger.at);
      ("store", J.Str c.Ledger.store);
      ("classid", J.Int c.Ledger.classid);
      ("line", J.Int c.Ledger.line);
      ("pos", J.Int c.Ledger.pos);
      ("victims", J.List (List.map (fun v -> J.Str v) c.Ledger.victims));
      ( "respeculation",
        J.Obj (List.map (fun (fn, o) -> (fn, J.Str o)) c.Ledger.respec) );
    ]

let ledger_json l =
  [
    ( "kept_causes",
      J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (cause_histogram l)) );
    ("sites", J.List (List.map site_json (Ledger.sites l)));
    ( "deopts",
      J.List
        (List.map
           (fun (d : Ledger.deopt) ->
             J.Obj
               [
                 ("fn", J.Str d.Ledger.fn);
                 ("reason", Reason.to_json d.Ledger.reason);
                 ("rendered", J.Str (Reason.to_string d.Ledger.reason));
               ])
           (Ledger.deopts l)) );
    ("chains", J.List (List.map chain_json (Ledger.chains l)));
    ( "backoff_pins",
      J.List
        (List.map
           (fun (fn, e) -> J.Obj [ ("fn", J.Str fn); ("exponent", J.Int e) ])
           (Ledger.pins l)) );
  ]

let int_array_json a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a))

let report_json ~program ~checks_executed ?cc_occupancy ?cc_conflicts l =
  let cc =
    match (cc_occupancy, cc_conflicts) with
    | Some o, Some c ->
      [
        ( "cc_sets",
          J.Obj
            [
              ("occupancy", int_array_json o); ("conflicts", int_array_json c);
            ] );
      ]
    | _ -> []
  in
  Tce_obs.Export.document ~kind:report_kind
    (J.Obj
       ([
          ("scope", J.Str "program");
          ("program", J.Str program);
          ( "checks_executed",
            J.Obj (List.map (fun (k, v) -> (k, J.Int v)) checks_executed) );
        ]
       @ ledger_json l
       @ cc))
