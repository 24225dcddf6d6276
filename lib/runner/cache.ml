(** Content-addressed cell cache (see cache.mli and README.md for the key
    derivation / invalidation rules).

    One file per cell under [results/cache/], named by the hex digest of
    the cell's identity: everything that can change the simulated row —
    workload source, full engine/machine configuration (via
    {!Tce_engine.Engine.config_hash}), the record schema version and a
    fingerprint of the simulator binary itself. Values are the serialized row JSON with
    host wall clocks zeroed (a cached row is pure simulated data), written
    atomically (tmp + rename) so concurrent writers — a parent and its
    shard workers, or two overlapping sweeps — can only ever install a
    complete file, and rewriting an existing key is idempotent. *)

module J = Tce_obs.Json
module W = Tce_workloads.Workload

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

(* [mu] guards the counters: lookups run concurrently from the runner's
   domains, and a torn increment would break the exact hit-count
   assertions CI makes. File operations need no lock (atomic rename). *)
type t = { dir : string; stats : stats; mu : Mutex.t }

let default_max_bytes = 256 * 1024 * 1024

let create ?(dir = Store.cache_dir) () =
  {
    dir;
    stats = { hits = 0; misses = 0; bytes_read = 0; bytes_written = 0 };
    mu = Mutex.create ();
  }

let stats t = t.stats

let counts = function
  | None -> (0, 0)
  | Some t -> (t.stats.hits, t.stats.misses)

let dir t = t.dir

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let hit_ratio (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

(* --- key derivation --- *)

(* The simulator code fingerprint: a digest of the running executable.
   Any rebuild — even one that should not change simulated numbers —
   invalidates every key, which errs on the side of re-simulating (a
   stale hit could silently mask a perf change; a cold cache only costs
   wall time). Memoized behind a mutex, NOT a [lazy]: keys are derived
   concurrently from runner domains, and concurrently forcing one lazy
   raises in OCaml 5. Digesting a multi-megabyte binary once per process
   is fine, once per cell is not. *)
let sim_fingerprint =
  let mu = Mutex.create () in
  let memo = ref None in
  fun () ->
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        match !memo with
        | Some v -> v
        | None ->
          let v =
            try Digest.to_hex (Digest.file Sys.executable_name)
            with Sys_error _ -> "unknown"
          in
          memo := Some v;
          v)

(** Digest canonically over labelled parts: sorted by label, so key
    equality is independent of the order the caller listed them in. A
    label appearing twice is a programming error and fails loudly —
    silently keeping one would make two different identities collide. *)
let key (parts : (string * string) list) : string =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare a b) parts
  in
  let rec check_dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then
        invalid_arg (Printf.sprintf "Cache.key: duplicate label %S" a);
      check_dup rest
    | _ -> ()
  in
  check_dup sorted;
  let buf = Buffer.create 256 in
  List.iter
    (fun (l, v) ->
      Buffer.add_string buf l;
      Buffer.add_char buf '=';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    sorted;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The default configuration's hash, computed once: every roster and
   campaign cell key digests it, and hashing a configuration allocates
   (55 of them before a supervised campaign grew its parent's peak heap). *)
let default_config_hash = Tce_engine.Engine.(config_hash default_config)

(** The identity parts shared by every cell kind: config, schema and
    simulator fingerprint. *)
let base_parts ?config () =
  [
    ( "config",
      match config with
      | None -> default_config_hash
      | Some config when config == Tce_engine.Engine.default_config ->
        default_config_hash
      | Some config -> Tce_engine.Engine.config_hash config );
    ("schema", string_of_int Tce_obs.Export.schema_version);
    ("sim", sim_fingerprint ());
  ]

let bench_key ?config (w : W.t) : string =
  key
    (("kind", "bench-row")
     :: ("workload", w.W.name)
     :: ("source", Digest.to_hex (Digest.string w.W.source))
     :: ("iterations", string_of_int w.W.iterations)
     :: base_parts ?config ())

(** A fault-campaign cell: the bench identity plus the armed singleton
    spec and the cell's injector seed. *)
let fault_key ?config ~spec ~seed (w : W.t) : string =
  key
    (("kind", "fault-cell")
     :: ("workload", w.W.name)
     :: ("source", Digest.to_hex (Digest.string w.W.source))
     :: ("iterations", string_of_int w.W.iterations)
     :: ("spec", spec)
     :: ("seed", string_of_int seed)
     :: base_parts ?config ())

(* --- storage --- *)

let cell_path t k = Filename.concat t.dir (k ^ ".json")

(** Look the key up. A hit touches the file's mtime (the LRU clock
    {!prune} evicts by) and counts toward [hits]/[bytes_read]; a missing
    or unparseable file is a miss (a corrupt file — torn by a crashed
    host, not by us — is deleted so it cannot go on masking the slot). *)
let find t ~key:k : J.t option =
  let path = cell_path t k in
  match Result.to_option (Store.read_file path) with
  | None ->
    with_lock t (fun () -> t.stats.misses <- t.stats.misses + 1);
    None
  | Some text -> (
    match J.of_string text with
    | Ok j ->
      with_lock t (fun () ->
          t.stats.hits <- t.stats.hits + 1;
          t.stats.bytes_read <- t.stats.bytes_read + String.length text);
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some j
    | Error _ ->
      (try Sys.remove path with Sys_error _ -> ());
      with_lock t (fun () -> t.stats.misses <- t.stats.misses + 1);
      None)

(** Install [j] under [k]: write-to-temp + atomic rename, so a reader (or
    a concurrent writer of the same key — deterministic cells make the
    bytes identical) never observes a partial file. *)
let store t ~key:k (j : J.t) : unit =
  Store.mkdir_p t.dir;
  let path = cell_path t k in
  let text = J.to_string j in
  let tmp =
    Filename.temp_file ~temp_dir:t.dir ("." ^ k) ".tmp"
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc text);
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  with_lock t (fun () ->
      t.stats.bytes_written <- t.stats.bytes_written + String.length text)

(* --- size-bounded LRU prune --- *)

(** Every cell file with its size and mtime, oldest first. *)
let entries dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let cells =
      List.filter_map
        (fun name ->
          if Filename.check_suffix name ".json" then
            let path = Filename.concat dir name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> None
            | st when st.Unix.st_kind = Unix.S_REG ->
              Some (path, st.Unix.st_size, st.Unix.st_mtime)
            | _ -> None
          else None)
        (Array.to_list names)
    in
    List.sort (fun (_, _, a) (_, _, b) -> compare a b) cells

let size_bytes ?(dir = Store.cache_dir) () =
  List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 (entries dir)

(** Evict least-recently-used cells until the cache fits in [max_bytes]
    (default {!default_max_bytes}). Returns [(files_removed,
    bytes_freed)]. Deleting a file a concurrent reader just opened is
    fine — it keeps its fd — and a raced [Sys.remove] is ignored. *)
let prune ?(dir = Store.cache_dir) ?(max_bytes = default_max_bytes) () :
    int * int =
  let cells = entries dir in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 cells in
  let rec evict freed removed over = function
    | _ when over <= 0 -> (removed, freed)
    | [] -> (removed, freed)
    | (path, sz, _) :: rest ->
      (try Sys.remove path with Sys_error _ -> ());
      evict (freed + sz) (removed + 1) (over - sz) rest
  in
  evict 0 0 (total - max_bytes) cells

let print_stats ?(oc = stdout) (s : stats) =
  if s.hits + s.misses > 0 then
    Printf.fprintf oc
      "cache: %d hit(s), %d miss(es) (%.0f%% hit rate), %d B read, %d B written\n"
      s.hits s.misses
      (100.0 *. hit_ratio s)
      s.bytes_read s.bytes_written
