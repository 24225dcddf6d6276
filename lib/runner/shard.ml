(** One driver and one worker for every cell matrix (see shard.mli). *)

module J = Tce_obs.Json

let default_log_dir = Filename.concat "results" "shard_logs"

(** Render roster indices with their workload names when a namer is
    given — [missing: fib, deopt-storm (indices 3, 54)] diagnoses a
    partial run by itself, where bare indices need the roster decoded
    first. *)
let describe_indices ?names indices =
  let bare =
    Printf.sprintf "indices %s"
      (String.concat ", " (List.map string_of_int indices))
  in
  match names with
  | None -> bare
  | Some name_of -> (
    match List.filter_map name_of indices with
    | [] -> bare
    | named -> Printf.sprintf "%s (%s)" (String.concat ", " named) bare)

let merge_rows ?names ?(quarantined = []) ~what ~expected
    (rows : (int * 'a) list) : ('a list, string) result =
  let slots = Array.make expected None in
  let name_one i =
    match names with
    | Some name_of -> (
      match name_of i with
      | Some n -> Printf.sprintf "%s (index %d)" n i
      | None -> Printf.sprintf "index %d" i)
    | None -> Printf.sprintf "index %d" i
  in
  let rec place = function
    | [] ->
      let missing = ref [] in
      Array.iteri
        (fun i -> function
          | None -> if not (List.mem i quarantined) then missing := i :: !missing
          | Some _ -> ())
        slots;
      if !missing <> [] then
        Error
          (Printf.sprintf "%s merge: %d of %d rows missing: %s" what
             (List.length !missing) expected
             (describe_indices ?names (List.rev !missing)))
      else
        (* index order; quarantined holes are simply skipped *)
        Ok (List.filter_map Fun.id (Array.to_list slots))
    | (i, _) :: _ when i < 0 || i >= expected ->
      Error
        (Printf.sprintf "%s merge: row index %d out of range [0, %d)" what i
           expected)
    | (i, _) :: _ when slots.(i) <> None ->
      Error
        (Printf.sprintf "%s merge: %s arrived twice" what (name_one i))
    | (i, r) :: rest ->
      slots.(i) <- Some r;
      place rest
  in
  place rows

(* --- row envelopes --- *)

type 'row codec = {
  encode : 'row -> J.t;
  decode : J.t -> ('row, string) result;
  cache_form : 'row -> 'row;
}

let cell_codec =
  {
    encode = Record.cell_to_json;
    decode = Record.cell_of_json;
    cache_form = (fun (w, f) -> (Record.zero_walls w, f));
  }

let row_to_json codec ~index row : J.t =
  Tce_obs.Export.document ~kind:"row"
    (J.Obj [ ("index", J.Int index); ("row", codec.encode row) ])

let ( let* ) = Result.bind

let row_of_json codec (j : J.t) : (int * 'row, string) result =
  let* data = Tce_obs.Export.open_document ~kind:"row" j in
  let* i = J.field "index" (J.int_at_least 0) data in
  let* r = J.field "row" Option.some data in
  let* r = codec.decode r in
  Ok (i, r)

(* --- the journal header ---

   The first line of every journal names the matrix that wrote it: the
   digest of its cells' cache keys in index order (the keys include the
   simulator fingerprint, so another build's journal differs as a cache
   entry would), the cell count, and the worker argv that names the
   matrix in errors. [--resume] replays a journal only under its own
   matrix's header. *)

type header = { h_argv : string list; h_cells : int; h_keys : string }

let header_of_keys argv keys =
  {
    h_argv = argv;
    h_cells = Array.length keys;
    h_keys = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list keys)));
  }

let header_to_line h =
  J.to_string
    (Tce_obs.Export.document ~kind:"journal"
       (J.Obj
          [
            ("argv", J.List (List.map (fun a -> J.Str a) h.h_argv));
            ("cells", J.Int h.h_cells);
            ("keys", J.Str h.h_keys);
          ]))

let header_of_line line =
  let* j = J.of_string line in
  let* data = Tce_obs.Export.open_document ~kind:"journal" j in
  let* h_argv = J.field "argv" (J.list_of J.to_str) data in
  let* h_cells = J.field "cells" (J.int_at_least 0) data in
  let* h_keys = J.field "keys" J.to_str data in
  Ok { h_argv; h_cells; h_keys }

let describe h =
  Printf.sprintf "%S (%d cell(s), keys %s)"
    (String.concat " " h.h_argv) h.h_cells
    (String.sub h.h_keys 0 (min 12 (String.length h.h_keys)))

(* --- the cell matrix --- *)

(** Unknown costs first (a new cell could be arbitrarily long, so it
    must not start last), then known costs descending; ties break on
    input index, so the order is a deterministic function of the inputs. *)
let longest_first_order ~(cost : 'a -> float option) (xs : 'a list) : int array =
  let arr = Array.of_list xs in
  let key =
    Array.map (fun x -> match cost x with None -> infinity | Some c -> c) arr
  in
  let idx = Array.init (Array.length arr) (fun i -> i) in
  Array.sort
    (fun a b -> if key.(a) = key.(b) then compare a b else compare key.(b) key.(a))
    idx;
  idx

type 'row cells = {
  codec : 'row codec;
  argv : string list;
  count : int;
  name : int -> string;
  workload : int -> string;
  cost : int -> float option;
  key : int -> string;
  run : int -> 'row;
}

let worker ?chaos ~indices ~out (c : 'row cells) : unit =
  List.iter
    (fun i ->
      if i < 0 || i >= c.count then
        failwith
          (Printf.sprintf "worker index %d out of range [0, %d)" i c.count))
    indices;
  List.iteri
    (fun emitted i ->
      let mode = Supervise.Chaos.before_cell chaos ~emitted ~index:i out in
      let line = J.to_string (row_to_json c.codec ~index:i (c.run i)) in
      (match mode with
      | `Truncate -> Supervise.Chaos.truncate_line out line
      | `Run ->
        output_string out line;
        output_char out '\n';
        (* flush per row: the parent streams progress and a crashed worker
           loses only its in-flight cell *)
        flush out))
    indices

type 'row outcome = {
  rows : (int * 'row) list;
  quarantined : Supervise.quarantined list;
  resumed : int list;
  cache_stats : int * int;
}

let serial_jobs = function
  | None | Some 1 -> ()
  | Some j ->
    invalid_arg
      (Printf.sprintf "jobs = %d: cells run in parallel only on --shards N workers" j)

let run ?exe ?spawn ?(log_dir = default_log_dir)
    ?(supervise = Supervise.default_config) ~journal_path ?resume ?chaos
    ?cache ?on_row ~shards ~worker_args (c : 'row cells) : 'row outcome =
  let h0, m0 = Cache.counts cache in
  let outcome ?(quarantined = []) ?(resumed = []) rows =
    let h1, m1 = Cache.counts cache in
    { rows; quarantined; resumed; cache_stats = (h1 - h0, m1 - m0) }
  in
  (* Cell-cache keys digest the workload source: derive each once, and
     only when a cache was given. *)
  let keys = lazy (Array.init c.count c.key) in
  let cached i =
    Option.bind cache (fun ca ->
        Option.bind (Cache.find ca ~key:(Lazy.force keys).(i)) (fun j ->
            Result.to_option (c.codec.decode j)))
  in
  let install i row =
    Option.iter
      (fun ca ->
        Cache.store ca ~key:(Lazy.force keys).(i)
          (c.codec.encode (c.codec.cache_form row)))
      cache
  in
  let fresh i =
    let row = c.run i in
    install i row;
    row
  in
  let all = List.init c.count Fun.id in
  if shards <= 1 && resume = None then
    outcome
      (List.map
         (fun i ->
           let row = match cached i with Some row -> row | None -> fresh i in
           Option.iter (fun f -> f row) on_row;
           (i, row))
         all)
  else
    (* the matrix's name in errors: bench, sweep or faults *)
    let matrix = List.hd c.argv in
    let decode line =
      Result.map_error
        (fun e -> Printf.sprintf "bad %s row: %s" matrix e)
        (Result.bind (J.of_string line) (row_of_json c.codec))
    in
    let to_line i row = J.to_string (row_to_json c.codec ~index:i row) in
    let header = header_of_keys c.argv (Lazy.force keys) in
    (* Resume: replay every complete row of the crashed run's journal, if
       its header names this matrix; only the remainder is scheduled. A
       journal of another matrix is refused before anything runs or the
       new journal (often the same file) is opened. *)
    let journal_rows =
      match resume with
      | None -> []
      | Some path -> (
        let refuse why =
          failwith (Printf.sprintf "--resume %s: %s" path why)
        in
        match Store.journal_lines path with
        | Error e -> refuse e
        | Ok [] -> []
        | Ok (first :: lines) -> (
          match header_of_line first with
          | Ok h when h.h_cells = header.h_cells && h.h_keys = header.h_keys ->
            List.filter_map (fun line -> Result.to_option (decode line)) lines
          | Ok h ->
            refuse
              (Printf.sprintf "journal of %s, not of this run's %s%s"
                 (describe h) (describe header)
                 (if h.h_argv = header.h_argv then
                    " (same argv, other cell keys: another build or other \
                     cell options)"
                  else ""))
          | Error e ->
            refuse
              (Printf.sprintf
                 "no journal header (%s), so not known to be of this run's %s"
                 e (describe header))))
    in
    (* Cache pre-resolution: indices the journal did not cover are looked
       up in the cell cache. Hits ride the resume path (not scheduled,
       re-journaled) but are not resume provenance; misses are simulated by
       the workers and installed as their rows arrive. *)
    let cached_rows =
      List.filter_map
        (fun i ->
          if List.mem_assoc i journal_rows then None
          else Option.map (fun row -> (i, row)) (cached i))
        all
    in
    (* The queue: one group per workload, its cells in index order,
       longest group first. A group costs the sum of its cells. *)
    let groups =
      let groups =
        List.map
          (fun w -> List.filter (fun i -> c.workload i = w) all)
          (List.sort_uniq compare (List.map c.workload all))
      in
      let cost g =
        List.fold_left
          (fun acc i ->
            Option.bind acc (fun a -> Option.map (( +. ) a) (c.cost i)))
          (Some 0.0) g
      in
      let task i =
        { Supervise.t_index = i; t_name = c.name i; t_cost = c.cost i }
      in
      let arr = Array.of_list groups in
      Array.to_list
        (Array.map
           (fun k -> List.map task arr.(k))
           (longest_first_order ~cost groups))
    in
    let chaos_args =
      match chaos with
      | None -> fun _ -> None
      | Some (mode, seed) ->
        (* aimed at a cell the workers will run, not a resolved one *)
        let resolved i =
          List.mem_assoc i journal_rows || List.mem_assoc i cached_rows
        in
        Supervise.Chaos.arm ~mode ~seed
          (List.filter (fun i -> not (resolved i)) all)
    in
    let argv_of_indices ~slot:_ ~attempt:_ indices =
      Array.of_list
        ((Sys.executable_name :: c.argv)
        @ "--worker-indices"
          :: String.concat "," (List.map string_of_int indices)
          :: (Option.value ~default:[] (chaos_args indices) @ worker_args))
    in
    let parse line =
      match decode line with
      | Ok (i, _) when i >= c.count ->
        Error (Printf.sprintf "bad %s row: index %d out of range" matrix i)
      | Ok (i, row) as ok ->
        install i row;
        ok
      | Error _ as e -> e
    in
    let journal = Store.journal_open journal_path in
    let result =
      Fun.protect
        ~finally:(fun () -> Store.journal_close journal)
        (fun () ->
          Store.journal_append journal (header_to_line header);
          Supervise.run ?exe ?spawn ~config:supervise ~shards ~log_dir
            ~journal:(Store.journal_append journal) ~serial_run:fresh
            ~resume_rows:(journal_rows @ cached_rows) ~argv_of_indices
            ~parse ~to_line groups)
    in
    match result with
    | Error e ->
      failwith (Printf.sprintf "supervised %s run failed: %s" matrix e)
    | Ok o -> (
      let resumed =
        List.filter
          (fun i -> not (List.mem_assoc i cached_rows))
          o.Supervise.resumed
      in
      let name_of i = if i >= 0 && i < c.count then Some (c.name i) else None in
      let quarantined = o.Supervise.quarantined in
      match
        merge_rows ~names:name_of
          ~quarantined:(List.map (fun q -> q.Supervise.q_index) quarantined)
          ~what:matrix ~expected:c.count
          (* keep each row's index through the merge *)
          (List.map (fun (i, row) -> (i, (i, row))) o.Supervise.rows)
      with
      | Error e -> failwith e
      | Ok rows -> outcome ~quarantined ~resumed rows)
