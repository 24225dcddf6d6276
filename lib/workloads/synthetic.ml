(** Parameterized synthetic workload generators for the ablation studies
    (polymorphism-degree and hidden-class-count sweeps) and the ablations'
    workloads. All generated MiniJS is deterministic. *)

open Tce_support

(** A field-access kernel over [n_classes] distinct constructor shapes.
    [poly_sites] in [0,1] is the fraction of stores that rotate a second
    value type into a property (breaking monomorphism). *)
let poly_sweep ~n_classes ~poly_fraction ~objs ~rounds =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for c = 0 to n_classes - 1 do
    add "function K%d(v) { this.tag = %d; this.val = v; this.acc = 0; }\n" c c
  done;
  add "var pool = array_new(0);\n";
  add "function setup() {\n";
  add "  for (var i = 0; i < %d; i++) {\n" objs;
  for c = 0 to n_classes - 1 do
    add "    if (i %% %d == %d) { push(pool, new K%d(i)); }\n" n_classes c c
  done;
  add "  }\n}\nsetup();\n";
  (* the kernel reads val (object load) and writes acc; a poly_fraction of
     the writes store a double instead of an SMI *)
  let poly_every =
    if poly_fraction <= 0.0 then 0
    else max 1 (int_of_float (1.0 /. poly_fraction))
  in
  (* breakage is gated to start only once the kernel is hot, so the broken
     profiles are actually speculated on (and raise exceptions) *)
  add "var callIdx = 0;\n";
  add "function kernel() {\n";
  add "  var n = pool.length;\n  var acc = 0;\n";
  add "  for (var r = 0; r < %d; r++) {\n" rounds;
  add "    for (var i = 0; i < n; i++) {\n";
  add "      var o = pool[i];\n";
  add "      var v = o.val;\n";
  add "      acc = (acc + v + o.acc) & 268435455;\n";
  if poly_every > 0 then begin
    add "      if (callIdx > 7 && (r * n + i) %% %d == 7) { o.acc = 0.5; }\n"
      poly_every;
    add "      else { o.acc = v + r; }\n"
  end
  else add "      o.acc = v + r;\n";
  add "    }\n  }\n  return acc;\n}\n";
  add "function bench() { callIdx = callIdx + 1; return kernel(); }\n";
  Buffer.contents buf

(** A class-count sweep: [n_classes] shapes exercised round-robin. Used to
    stress Class Cache capacity (entries needed ~ classes x lines). *)
let class_count_sweep ~n_classes ~props_per_class ~rounds =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for c = 0 to n_classes - 1 do
    add "function C%d() {\n" c;
    for p = 0 to props_per_class - 1 do
      add "  this.p%d = %d;\n" p ((c * 7) + p)
    done;
    add "}\n"
  done;
  add "var pool = array_new(0);\n";
  add "function setup() {\n";
  for c = 0 to n_classes - 1 do
    add "  push(pool, new C%d());\n" c
  done;
  add "}\nsetup();\n";
  (* the stored value comes from a global cell (statically untyped), so the
     compiler cannot prove it matches the profile and must emit special
     stores — this is what exercises the Class Cache across many entries *)
  add "var gval = 1;\n";
  add "function bench() {\n  var acc = 0;\n";
  add "  for (var r = 0; r < %d; r++) {\n" rounds;
  add "    gval = r;\n";
  add "    var n = pool.length;\n";
  add "    for (var i = 0; i < n; i++) {\n";
  add "      var o = pool[i];\n";
  for p = 0 to min (props_per_class - 1) 4 do
    add "      o.p%d = gval;\n" p
  done;
  add "      acc = (acc + o.p0) & 268435455;\n";
  add "    }\n  }\n  return acc;\n}\n";
  Buffer.contents buf

(* --- the ablations' workloads: 10 iterations, the harness protocol; the
   suite is nominal, since none of them joins [Workloads.all] --- *)

let workload name source =
  Workload.make ~suite:Workload.Octane ~selected:false name source

(** [classes-N] (Ablation A): {!class_count_sweep} over [n] constructors
    of 2 properties, 60 rounds. *)
let classes n =
  workload
    (Printf.sprintf "classes-%d" n)
    (class_count_sweep ~n_classes:n ~props_per_class:2 ~rounds:60)

(** [poly-F] (Ablation B): {!poly_sweep} over 4 classes and 64 objects,
    60 rounds, with profile-breaking fraction [f]. *)
let poly f =
  workload
    (Printf.sprintf "poly-%.4f" f)
    (poly_sweep ~n_classes:4 ~poly_fraction:f ~objs:64 ~rounds:60)

(** [elem-stores-N] (Ablation C): stores into an [n]-element array of a
    value from a global cell holding a [K] object. Its class is constant
    at run time (the array's profile stays valid, so special stores are
    emitted) but statically opaque (so the compiler cannot prove them
    safe away): what movClassIDArray hoisting acts on. *)
let elem_stores n =
  workload
    (Printf.sprintf "elem-stores-%d" n)
    (Printf.sprintf
       {|
function K(v) { this.v = v; }
var box = {arr: array_new(0)};
var gk = new K(7);
function setup() {
  for (var i = 0; i < %d; i++) { push(box.arr, new K(i)); }
}
setup();
function bench() {
  var a = box.arr;
  var n = a.length;
  var acc = 0;
  for (var r = 0; r < 24; r++) {
    for (var i = 0; i < n; i++) {
      a[i] = gk;
      acc = (acc + a[i].v) & 268435455;
    }
  }
  return acc;
}
|}
       n)

(** Deterministic random object graph for property-based engine tests:
    small programs exercising objects, arrays, arithmetic and control flow
    with a known-terminating structure. *)
let random_program rng =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_props = 1 + Prng.int rng 4 in
  add "function Obj(";
  for p = 0 to n_props - 1 do
    if p > 0 then add ", ";
    add "a%d" p
  done;
  add ") {\n";
  for p = 0 to n_props - 1 do
    add "  this.f%d = a%d;\n" p p
  done;
  add "}\n";
  let n_objs = 2 + Prng.int rng 6 in
  add "var pool = array_new(0);\n";
  add "function setup() {\n  for (var i = 0; i < %d; i++) {\n" n_objs;
  add "    push(pool, new Obj(";
  for p = 0 to n_props - 1 do
    if p > 0 then add ", ";
    match Prng.int rng 3 with
    | 0 -> add "i + %d" (Prng.int rng 100)
    | 1 -> add "i * %d.5" (Prng.int rng 10)
    | _ -> add "%d" (Prng.int rng 1000)
  done;
  add "));\n  }\n}\nsetup();\n";
  add "function work() {\n  var acc = 0;\n";
  let rounds = 3 + Prng.int rng 10 in
  add "  for (var r = 0; r < %d; r++) {\n" rounds;
  add "    var n = pool.length;\n";
  add "    for (var i = 0; i < n; i++) {\n";
  add "      var o = pool[i];\n";
  let p = Prng.int rng n_props in
  (match Prng.int rng 4 with
  | 0 -> add "      acc = (acc + o.f%d) & 65535;\n" p
  | 1 -> add "      o.f%d = o.f%d + 1;\n      acc = (acc + i) & 65535;\n" p p
  | 2 ->
    add "      if (o.f%d > %d) { acc = acc + 1; } else { acc = acc + 2; }\n" p
      (Prng.int rng 50)
  | _ -> add "      acc = (acc + floor(o.f%d * 2.0)) & 65535;\n" p);
  add "    }\n  }\n  return acc;\n}\n";
  add "function bench() { return work(); }\n";
  Buffer.contents buf
