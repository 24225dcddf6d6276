(** Host-speed probe. On a shared VM the host runs slower by tens of
    percent, for seconds to minutes at a time, when neighbours load the
    shared caches and memory; the simulator slows with it, while a pure
    arithmetic loop barely moves. The probe is a fixed memory-bound task —
    random read-modify-writes over a 4 MB array, a hash table, and closure
    dispatch over a 256 KB one — that uses no code of the repository, so a
    change to the program cannot move it. Sampled between a run's
    operations ({!after}) or beside them ({!during}), it gives the host's
    speed over the run, and {!rescale}
    reports a wall time at the probe's nominal speed. Its arrays live
    outside the OCaml heap, so they do not move [peak_heap_mb]. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let big = ints (1 lsl 19)
let small = ints (1 lsl 15)
let tbl : (int, int) Hashtbl.t = Hashtbl.create 4096

let ops =
  Array.init 64 (fun k i ->
      let m = Bigarray.Array1.dim small - 1 in
      small.{(i * (k + 1)) land m} <- small.{(i + k) land m} + k)

let code =
  let st = Random.State.make [| 7 |] in
  let a = ints 65536 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    a.{i} <- Random.State.int st 64
  done;
  a

let work () =
  let m = Bigarray.Array1.dim big - 1 in
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to 1_500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land m in
    big.{j} <- big.{j} + i;
    acc := !acc + big.{(j * 7) land m};
    if i land 15 = 0 then Hashtbl.replace tbl (!x land 4095) !acc
  done;
  for i = 0 to 1_999_999 do
    ops.(code.{i land 65535}) i
  done;
  ignore (Sys.opaque_identity !acc)

(** Seconds one probe takes on the unloaded 2-vCPU Xeon VM the benchmark
    was written on; {!rescale} reports wall times at this speed. *)
let nominal_s = 0.028

(** Share of a run's operation time spent probing. *)
let duty = 0.1

type t = { mutable samples : float list; mutable debt : float }

(** A probe with its pages touched and code warm; the warm-up is not a
    sample. *)
let create () =
  work ();
  { samples = []; debt = 0.0 }

let sample t =
  let t0 = Span.now_ns () in
  work ();
  let s = Span.seconds_of_ns (Span.now_ns () - t0) in
  t.samples <- s :: t.samples;
  s

(** Probe for about {!duty} of an operation that took [secs], at least
    once: the seconds spent probing. *)
let after t secs =
  t.debt <- t.debt +. (duty *. secs);
  let spent = ref 0.0 in
  while t.debt > 0.0 || t.samples = [] do
    let s = sample t in
    t.debt <- t.debt -. s;
    spent := !spent +. s
  done;
  !spent

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [f ()], probed from a thread of its own for about {!duty} of the
    time, for operations that keep every core busy. A sample is then the
    process CPU time the probe took, not its wall time, so the wait for a
    core does not count. *)
let during t f =
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let c0 = cpu_s () and w0 = Span.now_ns () in
          work ();
          let s = cpu_s () -. c0 in
          t.samples <- s :: t.samples;
          Thread.delay (Span.seconds_of_ns (Span.now_ns () - w0) *. (1.0 -. duty) /. duty)
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    f

(** Mean seconds of one probe over the run. *)
let mean t =
  match t.samples with
  | [] -> invalid_arg "Probe.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [secs] of wall time at the probe's nominal speed. *)
let rescale t secs = secs *. nominal_s /. mean t
