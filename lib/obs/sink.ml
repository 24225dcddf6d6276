(** Trace sinks: JSON-lines and Chrome trace_event (see sink.mli). *)

let args_of_event (ev : Trace.event) : (string * Json.t) list =
  match ev with
  | Trace.Tierup { func; fn_id; opt_id } ->
    [ ("func", Json.Str func); ("fn_id", Json.Int fn_id); ("opt_id", Json.Int opt_id) ]
  | Compile { func; opt_id; instrs; bailout } ->
    [
      ("func", Json.Str func);
      ("opt_id", Json.Int opt_id);
      ("instrs", Json.Int instrs);
      ("bailout", match bailout with Some m -> Json.Str m | None -> Json.Null);
    ]
  | Deopt { reason; func; pc; classid } ->
    [
      ("reason", Json.Str reason);
      ("func", Json.Str func);
      ("pc", Json.Int pc);
      ("classid", Json.Int classid);
    ]
  | Cc_exception { classid; line; pos; victims } ->
    [
      ("classid", Json.Int classid);
      ("line", Json.Int line);
      ("pos", Json.Int pos);
      ("victims", Json.Int victims);
    ]
  | Ic_transition { site; slot; from_state; to_state } ->
    [
      ("site", Json.Str site);
      ("slot", Json.Int slot);
      ("from", Json.Str from_state);
      ("to", Json.Str to_state);
    ]
  | Osr { func; pc } -> [ ("func", Json.Str func); ("pc", Json.Int pc) ]
  | Gc { heap_bytes; grows } ->
    [ ("heap_bytes", Json.Int heap_bytes); ("grows", Json.Int grows) ]
  | Phase name -> [ ("name", Json.Str name) ]
  | Fault_injected { point; classid; line; pos } ->
    [
      ("point", Json.Str point);
      ("classid", Json.Int classid);
      ("line", Json.Int line);
      ("pos", Json.Int pos);
    ]
  | Fault_detected { func; opt_id; cause } ->
    [
      ("func", Json.Str func);
      ("opt_id", Json.Int opt_id);
      ("cause", Json.Str cause);
    ]
  | Backoff { func; level; until } ->
    [
      ("func", Json.Str func);
      ("level", Json.Int level);
      ("until", Json.Int until);
    ]

let event_json (r : Trace.record) =
  Json.Obj
    (("at", Json.Int r.Trace.at)
    :: ("event", Json.Str (Trace.kind r.Trace.ev))
    :: args_of_event r.Trace.ev)

let jsonl tr =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Json.to_buffer buf (event_json r);
      Buffer.add_char buf '\n')
    (Trace.records tr);
  Buffer.contents buf

(* --- Chrome trace_event --- *)

let pid = 1
let tid_baseline = 1
let tid_optimized = 2
let tid_compiler = 3

let tid_of_event (ev : Trace.event) =
  match ev with
  | Trace.Tierup _ | Compile _ -> tid_compiler
  | Deopt _ | Osr _ | Cc_exception _ | Fault_detected _ | Backoff _ ->
    tid_optimized
  | Ic_transition _ | Gc _ | Phase _ | Fault_injected _ -> tid_baseline

let name_of_event (ev : Trace.event) =
  match ev with
  | Trace.Tierup { func; _ } -> "tierup " ^ func
  | Compile { func; bailout = None; _ } -> "compile " ^ func
  | Compile { func; bailout = Some _; _ } -> "bailout " ^ func
  | Deopt { reason; func; _ } -> Printf.sprintf "deopt %s: %s" func reason
  | Cc_exception _ -> "cc-exception"
  | Ic_transition { site; to_state; _ } ->
    Printf.sprintf "ic %s -> %s" site to_state
  | Osr { func; _ } -> "osr " ^ func
  | Gc _ -> "heap-grow"
  | Phase name -> "phase " ^ name
  | Fault_injected { point; _ } -> "fault " ^ point
  | Fault_detected { func; cause; _ } ->
    Printf.sprintf "fault-detected %s: %s" func cause
  | Backoff { func; level; _ } -> Printf.sprintf "backoff %s (level %d)" func level

let thread_meta ~tid name =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let instant (r : Trace.record) =
  Json.Obj
    [
      ("name", Json.Str (name_of_event r.Trace.ev));
      ("cat", Json.Str (Trace.kind r.Trace.ev));
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Int r.Trace.at);
      ("pid", Json.Int pid);
      ("tid", Json.Int (tid_of_event r.Trace.ev));
      ("args", Json.Obj (args_of_event r.Trace.ev));
    ]

let counter ~at name value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("ts", Json.Int at);
      ("pid", Json.Int pid);
      ("args", Json.Obj [ (name, Json.Int value) ]);
    ]

(* Order is load-bearing: it is the on-disk track order of every Chrome
   trace written so far, asserted by test_obs. *)
let catalog (s : Snapshot.sample) : (string * int) list =
  [
    ("deopts", s.Snapshot.deopts);
    ("cc-occupancy", s.Snapshot.cc_occupancy);
    ("cc-conflicts", s.Snapshot.cc_conflicts);
    ("heap-bytes", s.Snapshot.heap_bytes);
  ]
  @ List.mapi
      (fun i v -> (Printf.sprintf "cc-occupancy/sets-%d" i, v))
      (Array.to_list s.Snapshot.cc_set_occupancy)
  @ List.map
      (fun (n, v) -> ("prof/" ^ n, v))
      (Array.to_list s.Snapshot.prof_costs)

let chrome_counters snap =
  List.concat_map
    (fun (s : Snapshot.sample) ->
      List.map (fun (name, v) -> counter ~at:s.Snapshot.at name v) (catalog s))
    (Snapshot.samples snap)

let chrome ?(counters = []) tr =
  let meta =
    [
      thread_meta ~tid:tid_baseline "tier-0 baseline interpreter";
      thread_meta ~tid:tid_optimized "tier-1 optimized code";
      thread_meta ~tid:tid_compiler "crankshaft compiler";
    ]
  in
  let events = List.map instant (Trace.records tr) in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events @ counters));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("generator", Json.Str "tce");
            ("events_total", Json.Int (Trace.total tr));
            ("events_dropped", Json.Int (Trace.dropped tr));
          ] );
    ]

let render ~format ?counters tr =
  match format with
  | `Jsonl -> jsonl tr
  | `Chrome -> Json.to_string (chrome ?counters tr) ^ "\n"

let write_file ~path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
