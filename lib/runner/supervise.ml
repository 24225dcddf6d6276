(** Supervised worker pool (see supervise.mli for the state machine). *)

module J = Tce_obs.Json

type task = { t_index : int; t_name : string; t_cost : float option }

type config = {
  max_retries : int;
  cell_timeout_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  verbose : bool;
}

let default_config =
  {
    max_retries = 3;
    cell_timeout_s = 60.0;
    backoff_base_s = 0.25;
    backoff_cap_s = 5.0;
    verbose = true;
  }

type quarantined = {
  q_index : int;
  q_name : string;
  q_kills : int;
  q_reason : string;
}

let quarantined_to_json (q : quarantined) : J.t =
  J.Obj
    [
      ("index", J.Int q.q_index);
      ("name", J.Str q.q_name);
      ("kills", J.Int q.q_kills);
      ("reason", J.Str q.q_reason);
    ]

let quarantined_of_json (j : J.t) : (quarantined, string) result =
  match
    ( Option.bind (J.member "index" j) J.to_int,
      Option.bind (J.member "name" j) J.to_str,
      Option.bind (J.member "kills" j) J.to_int,
      Option.bind (J.member "reason" j) J.to_str )
  with
  | Some q_index, Some q_name, Some q_kills, Some q_reason ->
    Ok { q_index; q_name; q_kills; q_reason }
  | _ -> Error "malformed quarantined entry"

type 'row outcome = {
  rows : (int * 'row) list;
  quarantined : quarantined list;
  resumed : int list;
  respawns : int;
  degraded_serial : int;
}

(* --- EINTR-safe syscall wrappers ---

   Any signal delivery (SIGCHLD from a dying worker, a profiling timer,
   a terminal resize) can interrupt select/read/waitpid with EINTR; the
   only correct response is to retry the call. *)

let rec select_restart r w e t =
  try Unix.select r w e t
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_restart r w e t

let rec read_restart fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_restart fd buf pos len

let rec waitpid_restart flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_restart flags pid

(* Non-blocking read for the stderr drains: the pipe read ends are
   O_NONBLOCK (a killed worker can leave orphaned grandchildren holding
   the write end, so a blocking read could wedge the supervisor). Returns
   -1 when no data is available right now. *)
let rec read_nb fd buf pos len =
  try Unix.read fd buf pos len with
  | Unix.Unix_error (Unix.EINTR, _, _) -> read_nb fd buf pos len
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1

(* UTC per-line prefix for the shard logs, millisecond resolution. *)
let utc_stamp () =
  let t = Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
    (int_of_float (Float.rem t 1.0 *. 1000.0))

(* --- chaos --- *)

module Chaos = struct
  type mode =
    | Crash_after
    | Sigkill_after
    | Hang_after
    | Garbage_after
    | Truncate_after
    | Poison

  type t = { mode : mode; arg : int }

  let mode_name = function
    | Crash_after -> "crash-after"
    | Sigkill_after -> "sigkill-after"
    | Hang_after -> "hang-after"
    | Garbage_after -> "garbage-after"
    | Truncate_after -> "truncate-after"
    | Poison -> "poison"

  let all_modes =
    [ Crash_after; Sigkill_after; Hang_after; Garbage_after; Truncate_after;
      Poison ]

  let parse_mode s =
    match List.find_opt (fun m -> mode_name m = s) all_modes with
    | Some m -> Ok m
    | None ->
      Error
        (Printf.sprintf "unknown chaos mode %S (one of: %s)" s
           (String.concat ", " (List.map mode_name all_modes)))

  let parse s =
    match String.index_opt s ':' with
    | None -> Error (Printf.sprintf "bad chaos spec %S (expected MODE:ARG)" s)
    | Some i -> (
      let m = String.sub s 0 i
      and a = String.sub s (i + 1) (String.length s - i - 1) in
      match (parse_mode m, int_of_string_opt a) with
      | Ok mode, Some arg when arg >= 0 -> Ok { mode; arg }
      | Ok _, _ ->
        Error (Printf.sprintf "bad chaos spec %S (ARG must be >= 0)" s)
      | (Error _ as e), _ -> e)

  let to_string t = Printf.sprintf "%s:%d" (mode_name t.mode) t.arg

  (* Cheap deterministic mixing — which cell the drill is aimed at must be
     a pure function of the seed, never of scheduling. *)
  let mix seed salt =
    let h = (seed lxor (salt * 0x9E3779B1)) * 0x85EBCA6B in
    let h = h lxor (h lsr 13) in
    abs (h * 0xC2B2AE35)

  let arm ~mode ~seed (scheduled : int list) =
    let target =
      match scheduled with
      | [] -> None
      | _ -> Some (List.nth scheduled (mix seed 2 mod List.length scheduled))
    in
    let fired = ref false in
    fun (indices : int list) ->
      match Option.bind target (fun t -> List.find_index (( = ) t) indices) with
      | None -> None
      | Some _ when mode = Poison ->
        (* every spawn that reaches the doomed cell dies on it, so retries
           keep dying until the supervisor quarantines it *)
        Some [ "--chaos"; to_string { mode; arg = Option.get target } ]
      | Some _ when !fired -> None
      | Some k ->
        (* recoverable faults fire once, just before the target's row *)
        fired := true;
        Some [ "--chaos"; to_string { mode; arg = k } ]

  let truncate_line out line =
    output_string out (String.sub line 0 (String.length line / 2));
    flush out;
    exit 0

  let before_cell t ~emitted ~index out =
    match t with
    | None -> `Run
    | Some { mode; arg } -> (
      let fire =
        match mode with Poison -> index = arg | _ -> emitted = arg
      in
      if not fire then `Run
      else
        match mode with
        | Poison | Crash_after ->
          flush out;
          exit 3
        | Sigkill_after ->
          flush out;
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          `Run
        | Hang_after ->
          flush out;
          let rec forever () =
            Unix.sleepf 3600.0;
            forever ()
          in
          forever ()
        | Garbage_after ->
          output_string out "this is not a row envelope {{{\n";
          flush out;
          exit 0
        | Truncate_after -> `Truncate)
end

(* --- spawning --- *)

type spawn =
  exe:string ->
  argv:string array ->
  stdout:Unix.file_descr ->
  stderr:Unix.file_descr ->
  int

let default_spawn : spawn =
 fun ~exe ~argv ~stdout ~stderr ->
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process exe argv devnull stdout stderr)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

(* --- the supervisor --- *)

(* OCaml reports a signal by its own negative constant ([Sys.sigkill] is
   -7); name the ones a worker can die of as the OS does, with their
   Linux numbers, and print any other as the raw constant. *)
let signal_name s =
  match
    List.assoc_opt s
      [
        (Sys.sigkill, ("SIGKILL", 9)); (Sys.sigterm, ("SIGTERM", 15));
        (Sys.sigint, ("SIGINT", 2)); (Sys.sigsegv, ("SIGSEGV", 11));
        (Sys.sigabrt, ("SIGABRT", 6)); (Sys.sigbus, ("SIGBUS", 7));
        (Sys.sigfpe, ("SIGFPE", 8));
      ]
  with
  | Some (name, n) -> Printf.sprintf "%s (%d)" name n
  | None -> Printf.sprintf "signal %d" s

type wstate = {
  ws_slot : int;  (** 1-based worker lineage *)
  mutable ws_attempt : int;  (** faults this lineage has respawned after *)
  mutable ws_pid : int;
  mutable ws_fd : Unix.file_descr;
  ws_buf : Buffer.t;  (** partial stdout line *)
  mutable ws_pending : int list;
      (** the in-flight group's cells still owed, in execution order; [] when
          the lineage is idle *)
  mutable ws_deadline : float;  (** absolute; progress resets it *)
  mutable ws_alive : bool;
  mutable ws_respawn_at : float;  (** backoff wake-up after a fault *)
  ws_log : string;
  mutable ws_err_fd : Unix.file_descr;  (** stderr pipe read end *)
  mutable ws_err_open : bool;
  ws_err_buf : Buffer.t;  (** partial stderr line *)
  mutable ws_log_oc : out_channel option;  (** timestamped shard log *)
}

let run ?(exe = Sys.executable_name) ?(spawn = default_spawn) ?journal
    ?serial_run ?(resume_rows = []) ~config ~shards ~log_dir ~argv_of_indices
    ~parse ~to_line (groups : task list list) :
    ('row outcome, string) result =
  (* The parent allocates little while it waits on its workers, so its
     few collections would fall wherever the work before this run left
     the heap, and its peak heap would differ between identical runs.
     Starting from a collected heap makes the run's memory its own. *)
  Gc.full_major ();
  mkdir_p log_dir;
  let shards = max 1 shards in
  let say fmt =
    Printf.ksprintf
      (fun s -> if config.verbose then Printf.eprintf "supervise: %s\n%!" s)
      fmt
  in
  let tasks = List.concat groups in
  let total = List.length tasks in
  let by_index = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace by_index t.t_index t) tasks;
  let name_of i =
    match Hashtbl.find_opt by_index i with
    | Some t -> t.t_name
    | None -> Printf.sprintf "#%d" i
  in
  (* Progress deadline per cell: the base timeout scaled by the cell's
     committed cost relative to the roster median, so one long cell does
     not trip the hang detector while a genuinely wedged worker cannot
     hide behind it. *)
  let median_cost =
    let cs =
      List.sort compare (List.filter_map (fun t -> t.t_cost) tasks)
    in
    match cs with [] -> None | _ -> Some (List.nth cs (List.length cs / 2))
  in
  let deadline_for i =
    let rel =
      match (Option.bind (Hashtbl.find_opt by_index i) (fun t -> t.t_cost),
             median_cost)
      with
      | Some c, Some m when m > 0.0 -> Stdlib.max 1.0 (c /. m)
      | _ -> 1.0
    in
    config.cell_timeout_s *. rel
  in
  (* Journal-replayed rows: completed up front, never scheduled. *)
  let resumed =
    List.sort_uniq compare
      (List.filter_map
         (fun (i, _) -> if Hashtbl.mem by_index i then Some i else None)
         resume_rows)
  in
  let resumed_rows =
    (* first occurrence wins; out-of-roster indices are dropped *)
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (i, _) ->
        if Hashtbl.mem by_index i && not (Hashtbl.mem seen i) then begin
          Hashtbl.replace seen i ();
          true
        end
        else false)
      resume_rows
  in
  let journal_line line = match journal with None -> () | Some j -> j line in
  List.iter (fun (i, r) -> journal_line (to_line i r)) resumed_rows;
  (* the queue: each group's cells still to run, in order; a group with
     none left is dropped *)
  let queue =
    ref
      (List.filter
         (fun g -> g <> [])
         (List.map
            (List.filter_map (fun t ->
                 if List.mem t.t_index resumed then None else Some t.t_index))
            groups))
  in
  let rows = ref (List.rev resumed_rows) (* accumulated in reverse *) in
  let kills : (int, int * string) Hashtbl.t = Hashtbl.create 8 in
  let quarantined = ref [] in
  let respawns = ref 0 in
  let degraded = ref 0 in
  let failure = ref None in
  let chunk = Bytes.create 65536 in
  let now () = Unix.gettimeofday () in
  let serial_fallback w =
    (* Forking failed: finish this group's cells in-process so resource
       pressure degrades the run to serial instead of killing it. *)
    match serial_run with
    | None ->
      failure :=
        Some
          (Printf.sprintf
             "worker %d/%d could not be spawned and no in-process fallback \
              is available"
             w.ws_slot shards)
    | Some f ->
      List.iter
        (fun i ->
          match f i with
          | row ->
            incr degraded;
            rows := (i, row) :: !rows;
            journal_line (to_line i row)
          | exception e ->
            (* an in-process crash is attributable to the cell itself *)
            let k =
              match Hashtbl.find_opt kills i with
              | Some (k, _) -> k + 1
              | None -> 1
            in
            quarantined :=
              {
                q_index = i;
                q_name = name_of i;
                q_kills = k;
                q_reason = "in-process fallback raised: " ^ Printexc.to_string e;
              }
              :: !quarantined)
        w.ws_pending;
      w.ws_pending <- []
  in
  (* Timestamped shard log: worker stderr flows through a pipe so the
     supervisor can prefix each line with a UTC stamp before appending it
     to the shard's log file. *)
  let log_channel w =
    match w.ws_log_oc with
    | Some oc -> oc
    | None ->
      let oc = open_out w.ws_log in
      w.ws_log_oc <- Some oc;
      oc
  in
  let err_write_lines w data =
    let oc = log_channel w in
    String.iter
      (fun c ->
        if c = '\n' then begin
          output_string oc (utc_stamp ());
          output_char oc ' ';
          output_string oc (Buffer.contents w.ws_err_buf);
          output_char oc '\n';
          Buffer.clear w.ws_err_buf
        end
        else Buffer.add_char w.ws_err_buf c)
      data;
    flush oc
  in
  (* Drain whatever stderr is available right now and close the pipe.
     Called once the worker is dead: orphaned grandchildren may still hold
     the write end, so stop at EAGAIN rather than waiting for EOF. *)
  let err_close w =
    if w.ws_err_open then begin
      w.ws_err_open <- false;
      let continue = ref true in
      while !continue do
        match read_nb w.ws_err_fd chunk 0 (Bytes.length chunk) with
        | 0 | -1 -> continue := false
        | n -> err_write_lines w (Bytes.sub_string chunk 0 n)
        | exception Unix.Unix_error _ -> continue := false
      done;
      if Buffer.length w.ws_err_buf > 0 then err_write_lines w "\n";
      try Unix.close w.ws_err_fd with Unix.Unix_error _ -> ()
    end
  in
  (* Spawn a process over the lineage's pending cells: a fresh group, or
     with [~retry] the remainder of one whose worker died. *)
  let spawn_worker ~retry w =
    let indices = w.ws_pending in
    let argv = argv_of_indices ~slot:w.ws_slot ~attempt:w.ws_attempt indices in
    let err_r, err_w = Unix.pipe ~cloexec:false () in
    Unix.set_nonblock err_r;
    let r, wr = Unix.pipe ~cloexec:false () in
    match spawn ~exe ~argv ~stdout:wr ~stderr:err_w with
    | pid ->
      Unix.close wr;
      Unix.close err_w;
      w.ws_pid <- pid;
      w.ws_fd <- r;
      w.ws_err_fd <- err_r;
      w.ws_err_open <- true;
      Buffer.clear w.ws_buf;
      w.ws_alive <- true;
      w.ws_deadline <- now () +. deadline_for (List.hd indices);
      if retry then begin
        incr respawns;
        let preview =
          let names = List.map name_of indices in
          match names with
          | a :: b :: c :: d :: _ :: _ ->
            String.concat ", " [ a; b; c; d ]
            ^ Printf.sprintf ", … (%d more)" (List.length names - 4)
          | _ -> String.concat ", " names
        in
        say "worker %d/%d attempt %d (pid %d) covers %d cell(s): %s" w.ws_slot
          shards w.ws_attempt pid (List.length indices) preview
      end
    | exception e ->
      Unix.close wr;
      Unix.close r;
      Unix.close err_w;
      Unix.close err_r;
      w.ws_alive <- false;
      say "worker %d/%d spawn failed (%s); degrading to in-process serial \
           execution"
        w.ws_slot shards (Printexc.to_string e);
      serial_fallback w
  in
  let workers =
    List.init shards (fun i ->
        {
          ws_slot = i + 1;
          ws_attempt = 0;
          ws_pid = -1;
          ws_fd = Unix.stdin;
          ws_buf = Buffer.create 256;
          ws_pending = [];
          ws_deadline = infinity;
          ws_alive = false;
          ws_respawn_at = 0.0;
          ws_log =
            Filename.concat log_dir (Printf.sprintf "shard-%d.log" (i + 1));
          ws_err_fd = Unix.stdin;
          ws_err_open = false;
          ws_err_buf = Buffer.create 256;
          ws_log_oc = None;
        })
  in
  (* fresh logs per run: a lineage's processes append to its log *)
  List.iter
    (fun w ->
      let fd =
        Unix.openfile w.ws_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Unix.close fd)
    workers;
  let reap w =
    if w.ws_alive then begin
      w.ws_alive <- false;
      (try Unix.close w.ws_fd with Unix.Unix_error _ -> ());
      let _, st = waitpid_restart [] w.ws_pid in
      err_close w;
      st
    end
    else Unix.WEXITED 0
  in
  let describe_status = function
    | Unix.WEXITED 0 -> "exited 0"
    | Unix.WEXITED c -> Printf.sprintf "exited %d" c
    | Unix.WSIGNALED s -> "killed by " ^ signal_name s
    | Unix.WSTOPPED s -> "stopped by " ^ signal_name s
  in
  (* A worker died (or was shot) with cells still owed: blame the cell in
     flight, quarantine it after max_retries kills, back off, respawn the
     group's remainder. *)
  let fault w reason =
    let st = reap w in
    let reason =
      Printf.sprintf "%s (%s, log: %s)" reason (describe_status st) w.ws_log
    in
    (match w.ws_pending with
    | [] ->
      say "worker %d/%d failed after finishing its cells: %s" w.ws_slot shards reason
    | blame :: rest ->
      let k =
        match Hashtbl.find_opt kills blame with Some (k, _) -> k + 1 | None -> 1
      in
      Hashtbl.replace kills blame (k, reason);
      say "worker %d/%d died on %s (kill %d/%d): %s" w.ws_slot shards
        (name_of blame) k config.max_retries reason;
      if k >= config.max_retries then begin
        quarantined :=
          { q_index = blame; q_name = name_of blame; q_kills = k;
            q_reason = reason }
          :: !quarantined;
        say "quarantined %s after %d kills; %d cell(s) continue" (name_of blame)
          k (List.length rest);
        w.ws_pending <- rest
      end);
    if w.ws_pending <> [] then begin
      let delay =
        Stdlib.min config.backoff_cap_s
          (config.backoff_base_s *. (2.0 ** float_of_int w.ws_attempt))
      in
      w.ws_attempt <- w.ws_attempt + 1;
      w.ws_respawn_at <- now () +. delay;
      say "respawning worker %d/%d in %.2fs over %d cell(s)" w.ws_slot shards
        delay (List.length w.ws_pending)
    end
  in
  let accept w line =
    match parse line with
    | Error e ->
      Unix.kill w.ws_pid Sys.sigkill;
      fault w (Printf.sprintf "streamed a garbage line (%s)" e)
    | Ok (i, row) ->
      if not (List.mem i w.ws_pending) then begin
        Unix.kill w.ws_pid Sys.sigkill;
        fault w
          (Printf.sprintf "streamed unexpected row index %d (%s)" i (name_of i))
      end
      else begin
        rows := (i, row) :: !rows;
        journal_line (to_line i row);
        say "cell %d/%d %s done" (List.length !rows) total (name_of i);
        w.ws_pending <- List.filter (fun j -> j <> i) w.ws_pending;
        w.ws_deadline <-
          (match w.ws_pending with
          | [] -> now () +. deadline_for i (* grace to flush and exit *)
          | next :: _ -> now () +. deadline_for next)
      end
  in
  let drain w n =
    let i = ref 0 in
    while w.ws_alive && !i < n do
      let c = Bytes.get chunk !i in
      if c = '\n' then begin
        let line = Buffer.contents w.ws_buf in
        Buffer.clear w.ws_buf;
        accept w line
      end
      else Buffer.add_char w.ws_buf c;
      incr i
    done
  in
  let eof w =
    let partial = Buffer.length w.ws_buf > 0 in
    let pending = w.ws_pending in
    if partial then begin
      Buffer.clear w.ws_buf;
      fault w "wrote a partial final line"
    end
    else if pending <> [] then fault w "exited with cells still owed"
    else begin
      let st = reap w in
      match st with
      | Unix.WEXITED 0 -> ()
      | st ->
        (* all rows arrived and parsed; a dirty exit is logged, not fatal *)
        say "worker %d/%d finished its cells but %s (log: %s)" w.ws_slot shards
          (describe_status st) w.ws_log
    end
  in
  (* An idle lineage takes the next group at once. A spawn that fails runs
     its group in-process, and the lineage takes the one after. *)
  let rec take w =
    if !failure = None && (not w.ws_alive) && w.ws_pending = [] then
      match !queue with
      | [] -> ()
      | g :: rest ->
        queue := rest;
        w.ws_pending <- g;
        spawn_worker ~retry:false w;
        take w
  in
  let waiting w = (not w.ws_alive) && w.ws_pending <> [] in
  let rec loop () =
    if !failure <> None then ()
    else begin
      let t = now () in
      List.iter
        (fun w ->
          if waiting w && w.ws_respawn_at <= t then spawn_worker ~retry:true w)
        workers;
      List.iter take workers;
      let live = List.filter (fun w -> w.ws_alive) workers in
      let waiting = List.filter waiting workers in
      (* every lineage idle: [take] has emptied the queue, or failed *)
      if live = [] && waiting = [] then ()
      else begin
        let t = now () in
        let next_event =
          List.fold_left
            (fun acc w -> Stdlib.min acc (w.ws_deadline -. t))
            (List.fold_left
               (fun acc w -> Stdlib.min acc (w.ws_respawn_at -. t))
               1.0 waiting)
            live
        in
        let timeout = Stdlib.min 1.0 (Stdlib.max 0.02 next_event) in
        let fds = List.map (fun w -> w.ws_fd) live in
        let err_fds =
          List.filter_map
            (fun w -> if w.ws_err_open then Some w.ws_err_fd else None)
            live
        in
        let ready, _, _ = select_restart (fds @ err_fds) [] [] timeout in
        List.iter
          (fun w ->
            if w.ws_err_open && List.mem w.ws_err_fd ready then
              match read_nb w.ws_err_fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                (* worker closed its stderr while still running *)
                w.ws_err_open <- false;
                (try Unix.close w.ws_err_fd with Unix.Unix_error _ -> ())
              | -1 -> ()
              | n -> err_write_lines w (Bytes.sub_string chunk 0 n))
          live;
        List.iter
          (fun w ->
            if w.ws_alive && List.mem w.ws_fd ready then
              match read_restart w.ws_fd chunk 0 (Bytes.length chunk) with
              | 0 -> eof w
              | n -> drain w n)
          live;
        (* hang detection: no progress before the in-flight cell's
           deadline means the worker is wedged — SIGKILL and blame *)
        let t = now () in
        List.iter
          (fun w ->
            if w.ws_alive && t > w.ws_deadline then begin
              Unix.kill w.ws_pid Sys.sigkill;
              fault w
                (Printf.sprintf
                   "no progress for %.1fs (deadline for %s exceeded)"
                   (deadline_for
                      (match w.ws_pending with i :: _ -> i | [] -> 0))
                   (match w.ws_pending with
                   | i :: _ -> name_of i
                   | [] -> "final flush"))
            end)
          workers;
        loop ()
      end
    end
  in
  loop ();
  let close_logs () =
    List.iter
      (fun w ->
        err_close w;
        match w.ws_log_oc with
        | Some oc ->
          w.ws_log_oc <- None;
          close_out oc
        | None -> ())
      workers
  in
  match !failure with
  | Some e ->
    (* shoot any survivors before reporting *)
    List.iter
      (fun w ->
        if w.ws_alive then begin
          (try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap w)
        end)
      workers;
    close_logs ();
    Error e
  | None ->
    close_logs ();
    let quarantined =
      List.sort (fun a b -> compare a.q_index b.q_index) !quarantined
    in
    Ok
      {
        rows = List.rev !rows;
        quarantined;
        resumed;
        respawns = !respawns;
        degraded_serial = !degraded;
      }
