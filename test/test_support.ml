(* Unit and property tests for the support library. *)

open Tce_support

let test_bytemap_basic () =
  Alcotest.(check bool) "empty has no bits" false (Bytemap.get Bytemap.empty 3);
  Alcotest.(check bool) "full has all bits" true (Bytemap.get Bytemap.full 7);
  let m = Bytemap.set Bytemap.empty 2 in
  Alcotest.(check bool) "set bit 2" true (Bytemap.get m 2);
  Alcotest.(check bool) "bit 3 still clear" false (Bytemap.get m 3);
  let m = Bytemap.clear Bytemap.full 0 in
  Alcotest.(check bool) "cleared bit 0" false (Bytemap.get m 0);
  Alcotest.(check int) "popcount full" 8 (Bytemap.popcount Bytemap.full);
  Alcotest.(check int) "popcount empty" 0 (Bytemap.popcount Bytemap.empty)

let test_bytemap_bounds () =
  Alcotest.check_raises "bit 8 rejected" (Invalid_argument "Bytemap: bit out of range")
    (fun () -> ignore (Bytemap.get Bytemap.empty 8));
  Alcotest.check_raises "negative bit rejected"
    (Invalid_argument "Bytemap: bit out of range") (fun () ->
      ignore (Bytemap.set Bytemap.empty (-1)));
  Alcotest.check_raises "of_int range" (Invalid_argument "Bytemap.of_int: out of range")
    (fun () -> ignore (Bytemap.of_int 256))

let test_bytemap_render () =
  Alcotest.(check string) "render full" "11111111" (Bytemap.to_bits Bytemap.full);
  Alcotest.(check string) "render one bit" "00000100"
    (Bytemap.to_bits (Bytemap.set Bytemap.empty 2))

let prop_bytemap_set_get =
  QCheck.Test.make ~name:"bytemap: get after set" ~count:200
    QCheck.(pair (int_bound 7) (int_bound 255))
    (fun (i, seed) ->
      let m = Bytemap.of_int seed in
      Bytemap.get (Bytemap.set m i) i
      && (not (Bytemap.get (Bytemap.clear m i) i))
      && Bytemap.to_int (Bytemap.set (Bytemap.clear m i) i)
         = Bytemap.to_int (Bytemap.set m i))

let prop_bytemap_popcount =
  QCheck.Test.make ~name:"bytemap: popcount = number of set bits" ~count:200
    QCheck.(int_bound 255)
    (fun seed ->
      let m = Bytemap.of_int seed in
      Bytemap.popcount m
      = List.length (List.filter (Bytemap.get m) [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_copy () =
  let a = Prng.create 3 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues the stream" (Prng.int a 1 + Prng.int a 100000)
    (Prng.int b 1 + Prng.int b 100000)

let prop_prng_bounds =
  QCheck.Test.make ~name:"prng: int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_float_unit =
  QCheck.Test.make ~name:"prng: float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let f = Prng.float rng in
      f >= 0.0 && f < 1.0)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_stats_mean_geomean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "geomean skips nonpositive" 2.0
    (Stats.geomean [ 1.0; 4.0; 0.0; -3.0 ])

let test_stats_improvement () =
  Alcotest.(check (float 1e-9)) "20% faster" 20.0
    (Stats.improvement ~base:100.0 ~opt:80.0);
  Alcotest.(check (float 1e-9)) "slower is negative" (-10.0)
    (Stats.improvement ~base:100.0 ~opt:110.0);
  Alcotest.(check (float 1e-9)) "zero base" 0.0 (Stats.improvement ~base:0.0 ~opt:5.0)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max

let test_table_render () =
  let out = Table.render ~headers:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  Alcotest.(check bool) "contains row" true
    (let rec contains i =
       i + 2 <= String.length out && (String.sub out i 2 = "yy" || contains (i + 1))
     in
     contains 0)

let test_table_bars () =
  let out = Table.bars ~width:10 [ ("x", 5.0); ("y", 10.0) ] in
  (* y gets the full width, x half *)
  Alcotest.(check bool) "has bars" true (String.contains out '#')

let test_table_csv_quoting () =
  Alcotest.(check string) "plain fields as they are, quoted ones doubled"
    "name,note\nplain,1.5\n\"a,b\",\"say \"\"hi\"\"\"\n\"two\nlines\",x\n"
    (Table.csv ~headers:[ "name"; "note" ]
       [ [ "plain"; "1.5" ]; [ "a,b"; "say \"hi\"" ]; [ "two\nlines"; "x" ] ])

let () =
  Alcotest.run "support"
    [
      ( "bytemap",
        [
          Alcotest.test_case "basic" `Quick test_bytemap_basic;
          Alcotest.test_case "bounds" `Quick test_bytemap_bounds;
          Alcotest.test_case "render" `Quick test_bytemap_render;
          QCheck_alcotest.to_alcotest prop_bytemap_set_get;
          QCheck_alcotest.to_alcotest prop_bytemap_popcount;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          QCheck_alcotest.to_alcotest prop_prng_bounds;
          QCheck_alcotest.to_alcotest prop_prng_float_unit;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/geomean" `Quick test_stats_mean_geomean;
          Alcotest.test_case "improvement" `Quick test_stats_improvement;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bars" `Quick test_table_bars;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
        ] );
    ]
