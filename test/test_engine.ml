(* End-to-end engine tests: language semantics (against hand-computed
   values), tier equivalence, deoptimization, misspeculation exceptions,
   OSR, and a random-program differential property. *)

module E = Tce_engine.Engine

let run_output ?(config = E.default_config) src =
  let t = E.of_source ~config src in
  (try ignore (E.run_main t)
   with e ->
     Alcotest.failf "runtime error: %s\nsource:\n%s" (Printexc.to_string e) src);
  E.output t

let interp_config = { E.default_config with E.jit = false }

(* expected output in all three execution modes *)
let check_all_modes name src expected =
  Alcotest.(check string) (name ^ " (interp)") expected
    (run_output ~config:interp_config src);
  Alcotest.(check string) (name ^ " (jit)") expected (run_output src);
  Alcotest.(check string)
    (name ^ " (jit, no mechanism)")
    expected
    (run_output ~config:{ E.default_config with E.mechanism = false } src)

let test_arithmetic () =
  check_all_modes "ints" "print(1 + 2 * 3 - 4);" "3\n";
  check_all_modes "division is float" "print(7 / 2);" "3.5\n";
  check_all_modes "int division idiom" "print((7 / 2) | 0);" "3\n";
  check_all_modes "modulo" "print(17 % 5); print((0 - 17) % 5);" "2\n-2\n";
  check_all_modes "float math" "print(0.1 + 0.2 > 0.3 - 0.0001);" "true\n";
  check_all_modes "mixed" "print(2 + 0.5);" "2.5\n";
  check_all_modes "overflow to double" "print(2000000000 + 2000000000);"
    "4000000000\n";
  check_all_modes "negative" "print(-5 + 3);" "-2\n"

let test_bitwise () =
  check_all_modes "and/or/xor" "print(12 & 10); print(12 | 3); print(12 ^ 10);"
    "8\n15\n6\n";
  check_all_modes "shifts" "print(1 << 10); print(-8 >> 1); print(-8 >>> 28);"
    "1024\n-4\n15\n";
  check_all_modes "bitnot" "print(~5);" "-6\n";
  check_all_modes "int32 wrap" "print((1 << 30) + (1 << 30) & -1 | 0);"
    (let v = Tce_vm.Value.to_int32 (1 lsl 31) in
     string_of_int v ^ "\n")

let test_comparisons_and_logic () =
  check_all_modes "relational" "print(1 < 2); print(2.5 >= 2.5); print(3 > 4);"
    "true\ntrue\nfalse\n";
  check_all_modes "equality" "print(1 == 1.0); print(\"a\" == \"a\"); print(null == null);"
    "true\ntrue\ntrue\n";
  check_all_modes "mixed equality is false" "print(1 == \"1\");" "false\n";
  check_all_modes "logic short circuit"
    "var x = 0; function f() { x = 1; return true; } var r = false && f(); print(x); print(r);"
    "0\nfalse\n";
  check_all_modes "or returns operand" "print(0 || 7); print(3 || 9);" "7\n3\n";
  check_all_modes "not" "print(!0); print(!3); print(!null);" "true\nfalse\ntrue\n"

let test_strings () =
  check_all_modes "concat" {|print("ab" + "cd");|} "abcd\n";
  check_all_modes "number coercion" {|print("x=" + 5); print(1.5 + "!");|}
    "x=5\n1.5!\n";
  check_all_modes "builtins"
    {|var s = "hello"; print(str_len(s)); print(char_code(s, 1)); print(substr(s, 1, 3)); print(from_char_code(65));|}
    "5\n101\nell\nA\n";
  check_all_modes "compare" {|print("abc" < "abd"); print(str_eq("a", "a"));|}
    "true\ntrue\n";
  check_all_modes "string index" {|var s = "xyz"; print(s[1]); print(s[9]);|}
    "y\nnull\n"

let test_objects () =
  check_all_modes "literal + props"
    "var o = {a: 1, b: 2.5}; o.c = o.a + o.b; print(o.c); o.a = 10; print(o.a);"
    "3.5\n10\n";
  check_all_modes "constructors"
    {|
function Pt(x, y) { this.x = x; this.y = y; }
var p = new Pt(3, 4);
print(p.x * p.x + p.y * p.y);
|}
    "25\n";
  check_all_modes "missing property is null" "var o = {a: 1}; print(o.b);" "null\n";
  check_all_modes "shapes shared"
    {|
function K(v) { this.v = v; }
var a = new K(1);
var b = new K(2);
a.extra = 9;
print(a.extra); print(b.extra); print(b.v);
|}
    "9\nnull\n2\n"

let test_arrays () =
  check_all_modes "literal and length" "var a = [1, 2, 3]; print(a.length); print(a[1]);"
    "3\n2\n";
  check_all_modes "growth"
    "var a = []; for (var i = 0; i < 100; i++) { push(a, i); } print(a.length); print(a[99]);"
    "100\n99\n";
  check_all_modes "oob" "var a = [1]; print(a[5]);" "null\n";
  check_all_modes "kind transitions"
    "var a = [1, 2]; a[0] = 1.5; print(a[0] + a[1]); a[1] = \"s\"; print(a[1]);"
    "3.5\ns\n";
  check_all_modes "array_new" "var a = array_new(3); print(a.length); print(a[2]);"
    "3\n0\n";
  check_all_modes "objects with elements"
    {|
function List(n) { this.n = n; }
var l = new List(2);
l[0] = 10; l[1] = 20;
print(l[0] + l[1]); print(l.n);
|}
    "30\n2\n"

let test_control_flow () =
  check_all_modes "for/break/continue"
    "var s = 0; for (var i = 0; i < 10; i++) { if (i == 2) continue; if (i == 5) break; s = s + i; } print(s);"
    "8\n";
  check_all_modes "while" "var n = 5; var f = 1; while (n > 1) { f = f * n; n--; } print(f);"
    "120\n";
  check_all_modes "nested loops"
    "var c = 0; for (var i = 0; i < 4; i++) { for (var j = 0; j < 4; j++) { if (i == j) { c = c + 1; } } } print(c);"
    "4\n";
  check_all_modes "ternary" "print(3 > 2 ? \"yes\" : \"no\");" "yes\n"

let test_functions () =
  check_all_modes "recursion"
    "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } print(fib(15));"
    "610\n";
  check_all_modes "missing args are null"
    "function f(a, b) { if (b == null) { return a; } return a + b; } print(f(5, 2)); print(f(5));"
    "7\n5\n";
  check_all_modes "no explicit return" "function f() { var x = 1; } print(f());"
    "null\n";
  check_all_modes "builtin math"
    "print(sqrt(16)); print(abs(0 - 3.5)); print(floor(2.9)); print(max(2, 7));"
    "4\n3.5\n2\n7\n"

let test_math_builtins () =
  check_all_modes "pow" "print(pow(2, 10));" "1024\n";
  check_all_modes "trig identity" "var x = sin(0.5); var y = cos(0.5); print(x * x + y * y > 0.999999);"
    "true\n"

(* --- extended semantics / adversarial cases --- *)

let test_smi_boundaries () =
  check_all_modes "smi max arithmetic"
    "print(2147483647); print(2147483647 + 1); print(-2147483648 - 1);"
    "2147483647\n2147483648\n-2147483649\n";
  check_all_modes "mul overflow boxes"
    "print(100000 * 100000);" "10000000000\n";
  check_all_modes "neg of min smi" "var x = -2147483648; print(-x);" "2147483648\n"

let test_division_corner_cases () =
  check_all_modes "exact smi division" "print(12 / 4);" "3\n";
  check_all_modes "inexact divisions deopt correctly"
    "function d(a, b) { return a / b; } var r = 0; for (var i = 1; i < 30; i++) { r = d(i * 4, 4); } print(r); print(d(5, 2));"
    "29\n2.5\n";
  check_all_modes "division by zero is infinite"
    "print(1 / 0 > 1000000); print(0.5 / 0.0 > 1e100);" "true\ntrue\n";
  check_all_modes "mod negative dividend" "print((0 - 7) % 3);" "-1\n";
  check_all_modes "mod by zero is nan (prints)" "var x = 5 % 0; print(x == x);"
    "false\n"

let test_ushr_big_values () =
  check_all_modes "ushr produces uint32"
    "print(-1 >>> 0); print(-1 >>> 28);" "4294967295\n15\n";
  check_all_modes "ushr in a hot loop deopts once then stays right"
    "function f(x) { return x >>> 1; } var r = 0; for (var i = 0; i < 30; i++) { r = f(i); } print(r); print(f(-2));"
    "14\n2147483647\n"

let test_shift_masking () =
  check_all_modes "shift count masked to 31"
    "print(1 << 33); print(16 >> 36);" "2\n1\n"

let test_string_builtins_full () =
  check_all_modes "substr clamps"
    {|var s = "hello"; print(substr(s, 3, 10)); print(substr(s, 9, 2)); print(substr(s, 0, 0));|}
    "lo\n\n\n";
  check_all_modes "concat chain builds"
    {|var s = ""; for (var i = 0; i < 5; i++) { s = s + i; } print(s); print(str_len(s));|}
    "01234\n5\n";
  check_all_modes "from_char_code wraps" "print(from_char_code(65 + 256));" "A\n";
  check_all_modes "interning: content equality through concat"
    {|var a = "ab" + "c"; var b = "a" + "bc"; print(a == b);|} "true\n"

let test_math_builtins_full () =
  check_all_modes "floor/ceil negatives"
    "print(floor(0 - 1.5)); print(ceil(0 - 1.5));" "-2\n-1\n";
  check_all_modes "min/max with doubles" "print(min(1.5, 2)); print(max(0 - 1, 0 - 2.5));"
    "1.5\n-1\n";
  check_all_modes "abs smi and double" "print(abs(0 - 42)); print(abs(0 - 4.25));"
    "42\n4.25\n";
  check_all_modes "exp/log roundtrip" "print(abs(log(exp(2.0)) - 2.0) < 1e-9);"
    "true\n";
  check_all_modes "sqrt of square" "print(sqrt(12.25));" "3.5\n"

let test_deep_property_chains () =
  check_all_modes "three-level chains"
    {|
function A(b) { this.b = b; }
function B(c) { this.c = c; }
function C(v) { this.v = v; }
var root = new A(new B(new C(7)));
function get() { return root.b.c.v; }
var r = 0;
for (var i = 0; i < 20; i++) { r = r + get(); }
print(r);
|}
    "140\n"

let test_polymorphic_sites () =
  check_all_modes "two-shape polymorphic load"
    {|
function P(x) { this.x = x; }
function Q(x) { this.x = x; this.extra = 0; }
var os = array_new(0);
for (var i = 0; i < 40; i++) {
  if (i % 2 == 0) { push(os, new P(i)); } else { push(os, new Q(i)); }
}
function sum() {
  var s = 0;
  for (var i = 0; i < 40; i++) { s = s + os[i].x; }
  return s;
}
var r = 0;
for (var k = 0; k < 12; k++) { r = sum(); }
print(r);
|}
    "780\n"

let test_megamorphic_sites () =
  check_all_modes "six shapes go megamorphic and stay correct"
    {|
function S0(x) { this.a0 = 0; this.x = x; }
function S1(x) { this.a1 = 0; this.x = x; }
function S2(x) { this.a2 = 0; this.x = x; }
function S3(x) { this.a3 = 0; this.x = x; }
function S4(x) { this.a4 = 0; this.x = x; }
function S5(x) { this.a5 = 0; this.x = x; }
var os = array_new(0);
function fill() {
  push(os, new S0(0)); push(os, new S1(1)); push(os, new S2(2));
  push(os, new S3(3)); push(os, new S4(4)); push(os, new S5(5));
}
fill();
function sum() {
  var s = 0;
  for (var i = 0; i < 6; i++) { s = s + os[i].x; }
  return s;
}
var r = 0;
for (var k = 0; k < 15; k++) { r = sum(); }
print(r);
|}
    "15\n"

let test_transitioning_store_in_hot_code () =
  check_all_modes "hot function adds a property"
    {|
function mk(i) {
  var o = {a: i};
  o.b = i * 2;
  return o.a + o.b;
}
var r = 0;
for (var i = 0; i < 40; i++) { r = mk(i); }
print(r);
|}
    "117\n"

let test_object_identity () =
  check_all_modes "reference equality"
    {|
var a = {v: 1};
var b = {v: 1};
var c = a;
print(a == b); print(a == c); print(a != b);
|}
    "false\ntrue\ntrue\n"

let test_arrays_of_arrays () =
  check_all_modes "nested arrays"
    {|
var m = [];
for (var i = 0; i < 4; i++) {
  var row = [];
  for (var j = 0; j < 4; j++) { push(row, i * 4 + j); }
  push(m, row);
}
var s = 0;
for (var i = 0; i < 4; i++) {
  for (var j = 0; j < 4; j++) { s = s + m[i][j]; }
}
print(s);
|}
    "120\n"

let test_comparison_chains_hot () =
  check_all_modes "mixed compare kinds in one function"
    {|
function cmp(a, b) {
  if (a < b) { return 0 - 1; }
  if (a > b) { return 1; }
  return 0;
}
var r = 0;
for (var i = 0; i < 30; i++) { r = r + cmp(i, 15); }
print(r);
print(cmp(1.5, 1.5)); print(cmp("a", "b"));
|}
    "-1\n0\n-1\n"

let test_while_backedge_hotness () =
  (* a function hot only through loop iterations still gets optimized *)
  let t =
    E.of_source
      {|
function spin() {
  var s = 0;
  var i = 0;
  while (i < 3000) { s = (s + i) & 65535; i++; }
  return s;
}
var a = spin();
var b = spin();
print(a == b);
|}
  in
  ignore (E.run_main t);
  Alcotest.(check string) "correct" "true\n" (E.output t);
  let f = Option.get (Tce_jit.Bytecode.find_func t.E.prog "spin") in
  Alcotest.(check bool) "tiered via backedges" true
    (f.Tce_jit.Bytecode.backedge_count > 1000)

let test_many_locals_and_args () =
  check_all_modes "wide frames"
    {|
function wide(a, b, c, d, e, f, g, h) {
  var x1 = a + b; var x2 = c + d; var x3 = e + f; var x4 = g + h;
  var y1 = x1 * x2; var y2 = x3 * x4;
  return y1 + y2;
}
var r = 0;
for (var i = 0; i < 20; i++) { r = wide(1, 2, 3, 4, 5, 6, 7, 8); }
print(r);
|}
    "186\n"

let test_ctor_with_conditional_shapes () =
  (* two transition paths from one constructor: shape depends on input *)
  check_all_modes "branchy constructor"
    {|
function K(kind, v) {
  this.kind = kind;
  if (kind == 0) { this.small = v; } else { this.big = v * 1000; }
}
var os = array_new(0);
for (var i = 0; i < 30; i++) { push(os, new K(i % 2, i)); }
function sum() {
  var s = 0;
  for (var i = 0; i < 30; i++) {
    var o = os[i];
    if (o.kind == 0) { s = s + o.small; } else { s = s + o.big; }
  }
  return s;
}
var r = 0;
for (var k = 0; k < 12; k++) { r = sum(); }
print(r);
|}
    "225210\n"

let test_elements_growth_in_hot_loop () =
  check_all_modes "appends through the slow path"
    {|
function build(n) {
  var a = [];
  for (var i = 0; i < n; i++) { push(a, i * 3); }
  return a[n - 1];
}
var r = 0;
for (var k = 0; k < 12; k++) { r = build(50); }
print(r);
|}
    "147\n"

let test_print_formats () =
  check_all_modes "number display"
    "print(0.5); print(1e21); print(0 - 0.25); print(123456789);"
    "0.5\n1e+21\n-0.25\n123456789\n";
  check_all_modes "array display" "print([1, [2, 3], \"x\"]);" "[1,[2,3],x]\n";
  check_all_modes "object display" "print({a: 1});" "[object Object+a]\n"

(* --- tier interactions --- *)

let test_hot_function_tiers_up () =
  let t =
    E.of_source
      "function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; }\n\
       var r = 0;\n\
       for (var k = 0; k < 20; k++) { r = f(100); }\n\
       print(r);"
  in
  ignore (E.run_main t);
  Alcotest.(check string) "result" "4950\n" (E.output t);
  let f = Option.get (Tce_jit.Bytecode.find_func t.E.prog "f") in
  Alcotest.(check bool) "f was optimized" true (f.Tce_jit.Bytecode.opt <> None)

let test_deopt_on_type_change () =
  (* checks fail when types change; execution must fall back and stay right *)
  check_all_modes "smi -> double phase change"
    {|
function add(a, b) { return a + b; }
var r = 0;
for (var i = 0; i < 50; i++) { r = add(i, 1); }
var r2 = add(0.5, 0.25);
print(r); print(r2);
|}
    "50\n0.75\n"

let test_misspeculation_exception () =
  let src =
    {|
function Box(v) { this.v = v; }
function get(b) { return b.v; }
var boxes = array_new(0);
for (var i = 0; i < 100; i++) { push(boxes, new Box(i)); }
function sum() {
  var s = 0;
  for (var i = 0; i < 100; i++) { s = s + get(boxes[i]); }
  return s;
}
var r = 0;
for (var k = 0; k < 10; k++) { r = sum(); }
boxes[3].v = 2.5;
print(r); print(sum());
|}
  in
  check_all_modes "profile break stays correct" src "4950\n4949.5\n";
  (* with the mechanism, the break must raise the exception and deopt *)
  let t = E.of_source src in
  E.set_measuring t true;
  ignore (E.run_main t);
  Alcotest.(check bool) "misspeculation exception raised" true
    (t.E.cc.Tce_core.Class_cache.stats.exceptions > 0)

let test_osr_out_of_invalidated_frame () =
  (* the store that breaks the profile happens INSIDE the optimized function
     that speculated on it: it must OSR out mid-execution and stay correct *)
  check_all_modes "self-invalidating function"
    {|
function Box(v) { this.v = v; }
var boxes = array_new(0);
for (var i = 0; i < 60; i++) { push(boxes, new Box(i)); }
var trigger = 0 - 1;
function sweep() {
  var s = 0;
  for (var i = 0; i < 60; i++) {
    var b = boxes[i];
    s = s + b.v;
    if (i == trigger) { b.v = 0.5; }
  }
  return s;
}
var r = 0;
for (var k = 0; k < 10; k++) { r = sweep(); }
trigger = 30;
var r2 = sweep();
trigger = 0 - 1;
var r3 = sweep();
print(r); print(r2); print(r3);
|}
    "1770\n1770\n1740.5\n"

let test_elements_kind_transition_retires_profiles () =
  (* gr.nodes profiled as Array[smi]; the in-place kind transition must not
     leave stale speculation behind *)
  check_all_modes "kind transition under speculation"
    {|
function G() { this.nodes = array_new(0); }
var g = new G();
push(g.nodes, 1);
function f() { var ns = g.nodes; return ns[0]; }
var r = 0;
for (var k = 0; k < 20; k++) { r = f(); }
push(g.nodes, {tag: 7});
var o = g.nodes[1];
print(r); print(o.tag); print(f());
|}
    "1\n7\n1\n"

let test_retire_path_cc_exception_flow () =
  (* a hot optimized function speculates on g.nodes being one Array class;
     an in-place elements-kind transition retires that class mid-run. The
     engine must route this through the CC-exception deopt flow (visible in
     the counters and the oracle's retired sentinel), not just stay
     correct by accident. *)
  let src =
    {|
function G() { this.nodes = array_new(0); }
var g = new G();
for (var i = 0; i < 8; i++) { push(g.nodes, i); }
function total() {
  var ns = g.nodes;
  var s = 0;
  for (var i = 0; i < 8; i++) { s = s + ns[i]; }
  return s;
}
var r = 0;
for (var k = 0; k < 30; k++) { r = total(); }
push(g.nodes, {tag: 5});
print(r); print(total());
|}
  in
  check_all_modes "speculation on mid-run-retired class" src "28\n28\n";
  let t = E.of_source src in
  E.set_measuring t true;
  ignore (E.run_main t);
  Alcotest.(check bool) "retire went through the CC-exception deopt flow"
    true
    (t.E.counters.Tce_machine.Counters.cc_exception_deopts > 0);
  Alcotest.(check bool) "oracle carries the retired-class sentinel" true
    (Tce_core.Oracle.fold
       (fun acc ~classid:_ ~line:_ ~pos:_ ~info ->
         acc || List.mem (-1) info.Tce_core.Oracle.classes)
       false t.E.oracle)

let test_boolean_property_speculation () =
  (* regression: a property profiled as class Boolean holds BOTH oddballs;
     speculated code must still branch on the value, not assume truthy *)
  check_all_modes "boolean-valued property in condition"
    {|
function E(ok) { this.ok = ok; }
var es = array_new(0);
for (var i = 0; i < 60; i++) { push(es, new E(i % 3 != 0)); }
function count() {
  var c = 0;
  for (var i = 0; i < 60; i++) { if (es[i].ok) { c++; } }
  return c;
}
var r = 0;
for (var k = 0; k < 12; k++) { r = count(); }
print(r);
|}
    "40
";
  check_all_modes "null-valued property in condition"
    {|
function E(p) { this.p = p; }
var es = array_new(0);
for (var i = 0; i < 60; i++) { push(es, new E(null)); }
function count() {
  var c = 0;
  for (var i = 0; i < 60; i++) { if (es[i].p) { c++; } }
  return c;
}
var r = 1;
for (var k = 0; k < 12; k++) { r = count(); }
print(r);
|}
    "0
"

let test_global_semantics () =
  check_all_modes "globals shared across functions"
    {|
var counter = 0;
function tick() { counter = counter + 1; return counter; }
tick(); tick();
print(counter);
function reset() { counter = 0; }
reset();
print(counter);
|}
    "2\n0\n"

let test_runtime_errors_surface () =
  let t = E.of_source "var x = null; print(x.field + 1);" in
  Alcotest.(check bool) "null property arithmetic traps" true
    (try ignore (E.run_main t); false
     with E.Engine_error _ | Tce_engine.Runtime.Guest_error _ -> true);
  let t2 = E.of_source "print(1 + {a: 2});" in
  Alcotest.(check bool) "object arithmetic traps" true
    (try ignore (E.run_main t2); false
     with E.Engine_error _ | Tce_engine.Runtime.Guest_error _ -> true)

let test_guest_stack_overflow () =
  let t = E.of_source "function f(n) { return f(n + 1); } print(f(0));" in
  Alcotest.(check bool) "deep recursion trapped" true
    (try ignore (E.run_main t); false with E.Engine_error _ -> true)

let test_assert_eq_builtin () =
  check_all_modes "assert_eq passes" "assert_eq(2 + 2, 4); print(1);" "1\n";
  let t = E.of_source "assert_eq(1, 2);" in
  Alcotest.(check bool) "assert_eq fails" true
    (try ignore (E.run_main t); false
     with Tce_engine.Runtime.Guest_error _ -> true)

let test_determinism_with_random () =
  let src = "var s = 0.0; for (var i = 0; i < 10; i++) { s = s + random(); } print(s);" in
  Alcotest.(check string) "seeded PRNG is reproducible" (run_output src)
    (run_output src)

(* --- random-program differential property --- *)

let prop_random_programs_tier_equivalent =
  QCheck.Test.make ~name:"random programs: interpreter = JIT = JIT+mechanism"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Tce_support.Prng.create seed in
      let src = Tce_workloads.Synthetic.random_program rng in
      let run config =
        let t = E.of_source ~config src in
        ignore (E.run_main t);
        let v = ref t.E.heap.Tce_vm.Heap.null_v in
        for _ = 1 to 12 do
          v := E.call_by_name t "bench" [||]
        done;
        Tce_vm.Heap.to_display_string t.E.heap !v
      in
      let a = run interp_config in
      let b = run E.default_config in
      let c = run { E.default_config with E.mechanism = false } in
      let d =
        run { E.default_config with E.mechanism = false; checked_load = true }
      in
      if a = b && b = c && c = d then true
      else
        QCheck.Test.fail_reportf
          "tier mismatch: interp=%s jit=%s nomech=%s checked-load=%s\n%s" a b c d
          src)

(* --- SMI binop fast paths --- *)

module Rt = Tce_engine.Runtime
module V = Tce_vm.Value
module Fb = Tce_jit.Feedback

let smi_binops =
  Tce_minijs.Ast.
    [ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; BitAnd; BitOr; BitXor;
      Shl; Shr; Ushr ]

let binop_heap = lazy (Tce_vm.Heap.create ())

(* One binop through [eval]: the result as an SMI payload or the bits of a
   heap number (Error), its feedback, and the bytes it allocated. *)
let eval_binop_with eval op x y =
  let h = Lazy.force binop_heap in
  let mem = h.Tce_vm.Heap.mem in
  let before = mem.Tce_vm.Mem.next_free in
  let fbc = ref Fb.Bf_none in
  let v = eval h op (V.smi x) (V.smi y) fbc in
  let r =
    if V.is_smi v then Ok (V.smi_value v)
    else Error (Tce_vm.Fbits.of_float (Tce_vm.Heap.number_value h v))
  in
  (r, !fbc, mem.Tce_vm.Mem.next_free - before)

let fast_equals_float op x y =
  eval_binop_with Rt.eval_binop_cell op x y
  = eval_binop_with Rt.eval_binop_float op x y

(* Operands biased to the edges of the SMI range, to zero and to ±1, and
   to magnitudes whose products straddle it. *)
let smi_operand =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [ 0; 1; -1; 2; -2; V.smi_min; V.smi_max; V.smi_min + 1;
              V.smi_max - 1; 46340; 46341; -46341; 65536; -65536 ] );
        (2, int_range (-64) 64);
        (2, int_range V.smi_min V.smi_max);
      ])

let prop_smi_fast_paths_exact =
  QCheck.Test.make ~name:"SMI binop fast paths equal the float path"
    ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair smi_operand smi_operand))
    (fun (x, y) ->
      List.for_all
        (fun op ->
          fast_equals_float op x y
          || QCheck.Test.fail_reportf "%s %d %d differs"
               (Tce_minijs.Ast.show_binop op) x y)
        smi_binops)

let test_smi_fast_path_fallbacks () =
  let boxed f = Error (Tce_vm.Fbits.of_float f) in
  List.iter
    (fun (name, op, x, y, expected, feedback) ->
      if not (fast_equals_float op x y) then
        Alcotest.failf "%s: fast path differs from the float path" name;
      let r, fb, bytes = eval_binop_with Rt.eval_binop_cell op x y in
      if r <> expected then Alcotest.failf "%s: wrong value" name;
      if fb <> feedback then Alcotest.failf "%s: wrong feedback" name;
      if bytes = 0 then Alcotest.failf "%s: result not boxed" name)
    Tce_minijs.Ast.
      [
        ("add overflow", Add, V.smi_max, 1, boxed 2147483648.0, Fb.Bf_number);
        ("sub overflow", Sub, V.smi_min, 1, boxed (-2147483649.0), Fb.Bf_number);
        ("mul overflow", Mul, V.smi_max, 2, boxed 4294967294.0, Fb.Bf_number);
        ( "mul past the host int", Mul, V.smi_min, V.smi_min,
          boxed 4611686018427387904.0, Fb.Bf_number );
        ("negative times zero", Mul, -5, 0, boxed (-0.0), Fb.Bf_number);
        ("zero times negative", Mul, 0, V.smi_min, boxed (-0.0), Fb.Bf_number);
        (* the bitwise ops report SMI feedback for SMI operands *)
        ("ushr", Ushr, -1, 0, boxed 4294967295.0, Fb.Bf_smi);
        ("div", Div, 7, 2, boxed 3.5, Fb.Bf_number);
        ("mod to -0", Mod, -4, 2, boxed (-0.0), Fb.Bf_number);
      ];
  (* in range, the fast paths box nothing and report SMI feedback *)
  List.iter
    (fun (op, x, y, expected) ->
      Alcotest.(check bool)
        (Tce_minijs.Ast.show_binop op)
        true
        (eval_binop_with Rt.eval_binop_cell op x y = (Ok expected, Fb.Bf_smi, 0)))
    Tce_minijs.Ast.
      [
        (Add, V.smi_max, 0, V.smi_max);
        (Mul, 0, 5, 0);
        (Mul, -46340, 46340, -2147395600);
        (Sub, V.smi_min, -1, V.smi_min + 1);
      ]

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "comparisons/logic" `Quick test_comparisons_and_logic;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "objects" `Quick test_objects;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "math builtins" `Quick test_math_builtins;
          Alcotest.test_case "boolean/null speculation" `Quick
            test_boolean_property_speculation;
          Alcotest.test_case "globals" `Quick test_global_semantics;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors_surface;
          Alcotest.test_case "stack overflow" `Quick test_guest_stack_overflow;
          Alcotest.test_case "assert_eq" `Quick test_assert_eq_builtin;
          Alcotest.test_case "seeded random" `Quick test_determinism_with_random;
          Alcotest.test_case "smi boundaries" `Quick test_smi_boundaries;
          Alcotest.test_case "division corners" `Quick test_division_corner_cases;
          Alcotest.test_case "ushr big values" `Quick test_ushr_big_values;
          Alcotest.test_case "shift masking" `Quick test_shift_masking;
          Alcotest.test_case "string builtins" `Quick test_string_builtins_full;
          Alcotest.test_case "math builtins (full)" `Quick test_math_builtins_full;
          Alcotest.test_case "deep property chains" `Quick test_deep_property_chains;
          Alcotest.test_case "object identity" `Quick test_object_identity;
          Alcotest.test_case "arrays of arrays" `Quick test_arrays_of_arrays;
          Alcotest.test_case "compare kinds" `Quick test_comparison_chains_hot;
          Alcotest.test_case "wide frames" `Quick test_many_locals_and_args;
          Alcotest.test_case "print formats" `Quick test_print_formats;
          Alcotest.test_case "SMI fast-path fallbacks" `Quick
            test_smi_fast_path_fallbacks;
          QCheck_alcotest.to_alcotest prop_smi_fast_paths_exact;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "tier-up" `Quick test_hot_function_tiers_up;
          Alcotest.test_case "deopt on type change" `Quick test_deopt_on_type_change;
          Alcotest.test_case "misspeculation exception" `Quick
            test_misspeculation_exception;
          Alcotest.test_case "OSR out of invalidated frame" `Quick
            test_osr_out_of_invalidated_frame;
          Alcotest.test_case "kind-transition retirement" `Quick
            test_elements_kind_transition_retires_profiles;
          Alcotest.test_case "retire-path CC-exception flow" `Quick
            test_retire_path_cc_exception_flow;
          Alcotest.test_case "polymorphic sites" `Quick test_polymorphic_sites;
          Alcotest.test_case "megamorphic sites" `Quick test_megamorphic_sites;
          Alcotest.test_case "transitioning stores" `Quick
            test_transitioning_store_in_hot_code;
          Alcotest.test_case "backedge hotness" `Quick test_while_backedge_hotness;
          Alcotest.test_case "branchy constructors" `Quick
            test_ctor_with_conditional_shapes;
          Alcotest.test_case "growth in hot loop" `Quick
            test_elements_growth_in_hot_loop;
          QCheck_alcotest.to_alcotest prop_random_programs_tier_equivalent;
        ] );
    ]
