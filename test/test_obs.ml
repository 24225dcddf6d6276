(* Observability-layer tests: trace ring semantics, the zero-cost disabled
   path, JSON round-tripping of the Chrome sink, snapshot sampling, export
   envelopes, and deopt events (with reasons) from a forced
   misspeculation. *)

module T = Tce_obs.Trace
module J = Tce_obs.Json
module E = Tce_engine.Engine

(* --- trace ring --- *)

let test_ring_wraparound () =
  let tr = T.create ~capacity:4 () in
  for i = 0 to 9 do
    T.emit tr (T.Phase (string_of_int i))
  done;
  Alcotest.(check int) "total" 10 (T.total tr);
  Alcotest.(check int) "dropped" 6 (T.dropped tr);
  let names =
    List.map
      (fun r -> match r.T.ev with T.Phase n -> n | _ -> "?")
      (T.records tr)
  in
  Alcotest.(check (list string)) "oldest first, newest kept"
    [ "6"; "7"; "8"; "9" ] names;
  T.clear tr;
  Alcotest.(check int) "cleared" 0 (T.total tr)

let test_clock_stamps () =
  let tr = T.create () in
  let now = ref 100 in
  T.set_clock tr (fun () -> !now);
  T.emit tr (T.Phase "a");
  now := 250;
  T.emit tr (T.Phase "b");
  match T.records tr with
  | [ a; b ] ->
    Alcotest.(check int) "first stamp" 100 a.T.at;
    Alcotest.(check int) "second stamp" 250 b.T.at
  | _ -> Alcotest.fail "expected two records"

let test_disabled_path () =
  Alcotest.(check bool) "null is off" false (T.on T.null);
  T.emit T.null (T.Phase "ignored");
  T.emit T.null (T.Osr { func = "f"; pc = 3 });
  Alcotest.(check int) "no events recorded" 0 (T.total T.null);
  Alcotest.(check (list pass)) "no records" [] (T.records T.null)

(* An untraced engine run records nothing anywhere (the default config
   shares T.null): the disabled path is observably inert. *)
let test_engine_disabled_zero_events () =
  let t =
    E.of_source "var s = 0; for (var i = 0; i < 100; i++) { s = s + i; } print(s);"
  in
  ignore (E.run_main t);
  Alcotest.(check int) "null trace stayed empty" 0 (T.total T.null)

(* --- deterministic cycles with tracing on vs off --- *)

let deopt_src =
  {|
function Point(x, y) { this.x = x; this.y = y; }
function sum(p, n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = (s + p.x + p.y + i) & 268435455; }
  return s;
}
var acc = 0;
for (var k = 0; k < 12; k++) {
  acc = (acc + sum(new Point(k, k + 1), 400)) & 268435455;
}
var bad = new Point(0.5, 3);
acc = (acc + sum(bad, 400)) & 268435455;
print(acc);
|}

let run_traced ?(sample = 0) src =
  let trace = T.create () in
  let config =
    { E.default_config with E.trace = trace; obs_sample_cycles = sample }
  in
  let t = E.of_source ~config src in
  E.set_measuring t true;
  ignore (E.run_main t);
  (t, trace)

let test_tracing_does_not_change_cycles () =
  let t_off = E.of_source deopt_src in
  E.set_measuring t_off true;
  ignore (E.run_main t_off);
  let t_on, trace = run_traced ~sample:2048 deopt_src in
  Alcotest.(check bool) "trace saw events" true (T.total trace > 0);
  Alcotest.(check string) "same output" (E.output t_off) (E.output t_on);
  Alcotest.(check int) "same optimized cycles" (E.opt_cycles t_off)
    (E.opt_cycles t_on);
  Alcotest.(check (float 1e-9)) "same baseline cycles"
    (E.baseline_cycles t_off) (E.baseline_cycles t_on)

(* --- deopt events from a forced misspeculation --- *)

let test_deopt_reason_and_pc () =
  let _t, trace = run_traced deopt_src in
  let deopts =
    List.filter_map
      (fun r ->
        match r.T.ev with
        | T.Deopt { reason; func; pc; _ } -> Some (reason, func, pc)
        | _ -> None)
      (T.records trace)
  in
  Alcotest.(check bool) "at least one deopt" true (deopts <> []);
  let tierups =
    List.filter (fun r -> T.kind r.T.ev = "tierup") (T.records trace)
  in
  Alcotest.(check bool) "at least one tierup" true (tierups <> []);
  (* Every traced deopt reason is the canonical rendering of a typed
     Tce_attr.Reason.t — it must parse back losslessly. *)
  List.iter
    (fun (reason, _, _) ->
      match Tce_attr.Reason.of_string reason with
      | Some r ->
        Alcotest.(check string) "reason round-trips" reason
          (Tce_attr.Reason.to_string r)
      | None -> Alcotest.failf "untyped deopt reason in trace: %s" reason)
    deopts;
  match deopts with
  | (reason, func, pc) :: _ ->
    Alcotest.(check bool) "non-empty reason" true (String.length reason > 0);
    Alcotest.(check string) "deopting function" "sum" func;
    Alcotest.(check bool) "valid resume pc" true (pc >= 0)
  | [] -> ()

(* --- snapshot sampling --- *)

let test_snapshot_sampling () =
  let t, _trace = run_traced ~sample:1024 deopt_src in
  let samples = Tce_obs.Snapshot.samples t.E.snap in
  Alcotest.(check bool) "collected samples" true (samples <> []);
  let rec mono = function
    | (a : Tce_obs.Snapshot.sample) :: (b : Tce_obs.Snapshot.sample) :: rest ->
      a.Tce_obs.Snapshot.at <= b.Tce_obs.Snapshot.at && mono (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (mono samples)

(* --- chrome sink parses back --- *)

let test_chrome_parse_back () =
  let t, trace = run_traced ~sample:2048 deopt_src in
  let s =
    Tce_obs.Sink.render ~format:`Chrome
      ~counters:(Tce_obs.Sink.chrome_counters t.E.snap)
      trace
  in
  let j =
    match J.of_string s with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome output does not parse: %s" e
  in
  let events =
    match J.member "traceEvents" j with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let cat_is c e =
    match J.member "cat" e with Some (J.Str x) -> x = c | _ -> false
  in
  Alcotest.(check bool) "has a tierup" true (List.exists (cat_is "tierup") events);
  Alcotest.(check bool) "has a deopt" true (List.exists (cat_is "deopt") events);
  let counters =
    List.filter
      (fun e -> match J.member "ph" e with Some (J.Str "C") -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "has counter samples" true (counters <> []);
  List.iter
    (fun e ->
      match (J.member "name" e, J.member "pid" e, J.member "ph" e) with
      | Some _, Some _, Some _ -> ()
      | _ -> Alcotest.failf "malformed event: %s" (J.to_string e))
    events

let test_jsonl_parse_back () =
  let _t, trace = run_traced deopt_src in
  let lines =
    String.split_on_char '\n' (Tce_obs.Sink.jsonl trace)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per record" (List.length (T.records trace))
    (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok j ->
        if J.member "at" j = None || J.member "event" j = None then
          Alcotest.failf "record missing at/event: %s" l
      | Error e -> Alcotest.failf "bad jsonl line: %s (%s)" l e)
    lines

(* --- json / export round trips --- *)

let test_json_roundtrip () =
  let j =
    J.Obj
      [
        ("i", J.Int 42);
        ("neg", J.Int (-7));
        ("f", J.Float 2.5);
        ("s", J.Str "quote \" slash \\ newline \n unicode \xe2\x9c\x93");
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str "two"; J.Float 3.0 ]);
      ]
  in
  match J.of_string (J.to_string j) with
  | Ok j2 -> Alcotest.(check bool) "roundtrip" true (j = j2)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

(* The member-wise diff names each differing leaf by its path: nested
   members, list items of equal-length lists, and members one side lacks
   (as null); a list whose length changed is one entry. *)
let test_json_diff () =
  let a =
    J.Obj
      [ ("n", J.Int 1); ("o", J.Obj [ ("x", J.Float 1.5); ("y", J.Str "s") ]);
        ("l", J.List [ J.Int 1; J.Int 2 ]); ("gone", J.Bool true);
        ("grow", J.List [ J.Int 1 ]) ]
  in
  let b =
    J.Obj
      [ ("n", J.Int 1); ("o", J.Obj [ ("x", J.Float 2.5); ("y", J.Str "s") ]);
        ("l", J.List [ J.Int 1; J.Int 3 ]); ("grow", J.List [ J.Int 1; J.Int 2 ]);
        ("new", J.Int 4) ]
  in
  Alcotest.(check (list string)) "equal documents" []
    (List.map (fun (p, _, _) -> p) (J.diff a a));
  Alcotest.(check (list string)) "one line per differing leaf"
    [ "o.x: 1.5 2.5"; "l[1]: 2 3"; "gone: true null"; "grow: [1] [1,2]"; "new: null 4" ]
    (List.map
       (fun (p, x, y) -> Printf.sprintf "%s: %s %s" p (J.to_string x) (J.to_string y))
       (J.diff a b))

(* Malformed inputs and the parser's exact diagnostics, byte offsets
   included: tools and tests match on these strings. *)
let test_json_errors () =
  List.iter
    (fun (input, want) ->
      match J.of_string input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error e -> Alcotest.(check string) (Printf.sprintf "%S" input) want e)
    [
      ({|"abc|}, "JSON parse error at byte 4: unterminated string");
      ({|"ab\|}, "JSON parse error at byte 4: unterminated escape");
      ({|"\u12"|}, "JSON parse error at byte 3: truncated \\u escape");
      ({|"\uzzzz"|}, "JSON parse error at byte 7: bad \\u escape");
      ({|"\q"|}, "JSON parse error at byte 3: bad escape");
      ("1.2.3", "JSON parse error at byte 5: bad number: 1.2.3");
      ("-", "JSON parse error at byte 1: bad number: -");
      ("[1] x", "JSON parse error at byte 4: trailing garbage");
      ("[1 2]", "JSON parse error at byte 3: expected ',' or ']'");
      ({|{"a":1 "b":2}|}, "JSON parse error at byte 7: expected ',' or '}'");
      ({|{"a" 1}|}, "JSON parse error at byte 5: expected ':'");
      ("{1:2}", "JSON parse error at byte 1: expected '\"'");
      ("[1,]", "JSON parse error at byte 3: unexpected character ']'");
      ("@", "JSON parse error at byte 0: unexpected character '@'");
      ("tru", "JSON parse error at byte 0: expected true");
      ("", "JSON parse error at byte 0: unexpected end of input");
      ("   ", "JSON parse error at byte 3: unexpected end of input");
    ]

(* Random values, NaN and infinities aside, survive both renderings.
   Strings mix control characters, quotes, backslashes and non-ASCII
   bytes; floats stay clear of [1e15, 1e17), where an integral float
   renders without a '.' and parses back as an [Int]. *)
let gen_json =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (4, char_range ' ' '~');
        (1, char_range '\000' '\031');
        (1, oneofl [ '"'; '\\'; '/' ]);
        (1, char_range '\128' '\255');
      ]
  in
  let str = string_size ~gen:byte (0 -- 10) in
  let float =
    oneof
      [
        float_range (-1e12) 1e12;
        map (fun e -> ldexp 1.5 e) (-1070 -- 40);
        oneofl [ 0.0; -0.0; 5e-324; 1e17; 1e300; Float.max_float ];
      ]
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) float;
        map (fun s -> J.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map (fun kvs -> J.Obj kvs)
                   (list_size (0 -- 4) (pair str (self (n / 3)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string and to_string_pretty"
    ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun j ->
      J.of_string (J.to_string j) = Ok j
      && J.of_string (J.to_string_pretty j) = Ok j)

let test_export_envelope () =
  let doc = Tce_obs.Export.document ~kind:"test" (J.Int 5) in
  (match Tce_obs.Export.open_document ~kind:"test" doc with
  | Ok (J.Int 5) -> ()
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error e -> Alcotest.fail e);
  (match Tce_obs.Export.open_document ~kind:"sweep" doc with
  | Ok _ -> Alcotest.fail "accepted another kind"
  | Error e ->
    Alcotest.(check string) "kind error" {|expected a sweep document, got "test"|} e);
  match
    Tce_obs.Export.open_document ~kind:"test"
      (J.Obj [ ("schema_version", J.Int 999) ])
  with
  | Ok _ -> Alcotest.fail "accepted a future schema"
  | Error _ -> ()

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "clock stamps" `Quick test_clock_stamps;
          Alcotest.test_case "disabled path" `Quick test_disabled_path;
          Alcotest.test_case "engine disabled -> zero events" `Quick
            test_engine_disabled_zero_events;
        ] );
      ( "engine",
        [
          Alcotest.test_case "tracing does not change cycles" `Quick
            test_tracing_does_not_change_cycles;
          Alcotest.test_case "deopt reason and pc" `Quick test_deopt_reason_and_pc;
          Alcotest.test_case "snapshot sampling" `Quick test_snapshot_sampling;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome parse-back" `Quick test_chrome_parse_back;
          Alcotest.test_case "jsonl parse-back" `Quick test_jsonl_parse_back;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json errors" `Quick test_json_errors;
          Alcotest.test_case "json diff" `Quick test_json_diff;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "export envelope" `Quick test_export_envelope;
        ] );
    ]
