(* The benchmark executable. run.py builds it and calls it from the root
   of a checkout:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --max-unattributed SHARE

   It prints one JSON line of values as the last line of stdout. Every
   file it writes lives in a private directory under _perfbench/, removed
   on exit; the committed results are only read. With --setup-only 1 it
   runs the workload's set-up and exits silently: an untraced run times its
   set-up as several such processes. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload roster|faults|sweep-warm --seed N --seconds S \
     --trace 0|1 --max-unattributed SHARE";
  exit 2

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = num int_of_string_opt "seed" in
  let seconds = num float_of_string_opt "seconds" in
  let trace = num int_of_string_opt "trace" = 1 in
  let max_share = num float_of_string_opt "max-unattributed" in
  let setup_only = Hashtbl.find_opt args "setup-only" = Some "1" in
  (* set-up measured in fresh processes, [n] of them *)
  let setup_s n =
    Perfbench_lib.Metrics.median_process_time n
      (List.tl (Array.to_list Sys.argv) @ [ "--setup-only"; "1" ])
  in
  (* a worker the supervisor has killed must not take the parent with it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tmp =
    Filename.concat "_perfbench" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  let counter = ref 0 in
  let fresh_dir name =
    incr counter;
    let d = Filename.concat tmp (Printf.sprintf "%s-%d" name !counter) in
    Tce_runner.Store.mkdir_p d;
    d
  in
  let open Perfbench_lib in
  let result =
    Fun.protect
      ~finally:(fun () ->
        remove_tree tmp;
        try Unix.rmdir "_perfbench" with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Ok
            (match (workload, trace, setup_only) with
            | "roster", _, true -> ignore (Roster.setup ()); None
            | "faults", _, true -> ignore (Faults.setup ~seed); None
            | "sweep-warm", _, true -> ignore (Sweep_warm.setup ~seed ~fresh_dir); None
            | "roster", false, _ -> Some (Roster.run ~setup_s:(setup_s 5) ~seconds ~fresh_dir)
            | "roster", true, _ -> Some (Roster.trace ~seed ~fresh_dir ~max_share)
            | "faults", false, _ ->
              Some (Faults.run ~setup_s:(setup_s 5) ~seed ~seconds ~fresh_dir)
            | "faults", true, _ -> Some (Faults.trace ~seed ~fresh_dir ~max_share)
            | "sweep-warm", false, _ ->
              Some (Sweep_warm.run ~setup_s:(setup_s 3) ~seed ~seconds ~fresh_dir)
            | "sweep-warm", true, _ ->
              Some (Sweep_warm.trace ~seed ~seconds ~fresh_dir ~max_share)
            | _ -> usage ())
        with e -> Error (Printexc.to_string e))
  in
  match result with
  | Ok (Some m) -> Metrics.print m
  | Ok None -> ()
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    exit 1
