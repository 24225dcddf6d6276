(** Parallel workload execution (see runner.mli).

    Each workload is measured by {!Tce_metrics.Harness.run_pair_timed} in a
    freshly built engine; nothing in the stack below it is shared or
    mutable across instances (the simulator is deterministic given the
    source and config), so fanning workloads out across OCaml 5 domains
    cannot change any simulated number. Work is handed out through a
    single atomic index — domains race only for *which* workload they
    measure next, never over engine state — and each result lands in its
    input slot, so the output order is the input order regardless of
    scheduling. *)

module H = Tce_metrics.Harness

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let simulate_one ?config (w : Tce_workloads.Workload.t) : Record.workload =
  let off, on, wall_off, wall_on =
    match config with
    | None -> H.run_pair_timed w
    | Some config -> H.run_pair_timed ~config w
  in
  Record.of_pair ~wall_off ~wall_on off on

(** One measured pair, optionally through the content-addressed cell
    cache: a hit returns the stored row (wall clocks zeroed — pure
    simulated data) without simulating; a miss simulates and installs the
    wall-zeroed row. Cached and fresh rows agree on every simulated field
    ({!Record.equal_deterministic}), asserted by the test suite. *)
let run_one ?cache ?config (w : Tce_workloads.Workload.t) : Record.workload =
  match cache with
  | None -> simulate_one ?config w
  | Some cache -> (
    let key = Cache.bench_key ?config w in
    let cached =
      Option.bind (Cache.find cache ~key) (fun j ->
          Result.to_option (Record.workload_of_json j))
    in
    match cached with
    | Some row -> row
    | None ->
      let row = simulate_one ?config w in
      Cache.store cache ~key (Record.workload_to_json (Record.zero_walls row));
      row)

(* --- longest-first scheduling --- *)

(** [longest_first_order ~cost xs] is a permutation of [0 .. n-1]: the
    position-[k] entry is the input index to run [k]-th. Workloads with an
    unknown cost come first (a new workload could be arbitrarily long, so
    it must not start last), then known costs descending; ties break on
    input index, so the order is a deterministic function of the inputs.
    Pure — exposed for the scheduler test. *)
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

let parallel_map ?(jobs = default_jobs ()) (f : 'a -> 'b) (xs : 'a list) :
    'b list =
  let n = List.length xs in
  let jobs = min (max 1 jobs) (max 1 n) in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let results : 'b option array = Array.make n None in
    let failure : exn option Atomic.t = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (try results.(i) <- Some (f arr.(i))
           with e ->
             (* first failure wins; the others drain the queue and stop *)
             ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.to_list (Array.map Option.get results)
  end

(** Run [f] over [xs] visiting them in [order], returning results in the
    original input order. The permutation only changes *when* each
    workload runs, never its simulated numbers (engines are per-workload);
    with [jobs > 1] it keeps the long tail off the end of the schedule. *)
let map_in_order ~jobs ~(order : int array) (f : 'a -> 'b) (xs : 'a list) :
    'b list =
  let arr = Array.of_list xs in
  let permuted = List.map (fun i -> arr.(i)) (Array.to_list order) in
  let results = Array.of_list (parallel_map ~jobs f permuted) in
  let out = Array.make (Array.length arr) None in
  Array.iteri (fun slot i -> out.(i) <- Some results.(slot)) order;
  Array.to_list (Array.map Option.get out)

let run_workloads ?cache ?config ?(jobs = default_jobs ()) ?cost ?on_row
    (ws : Tce_workloads.Workload.t list) : Record.workload list =
  let run w =
    let r = run_one ?cache ?config w in
    (* [on_row] fires from whichever domain finished the workload; the
       observer (telemetry) is mutex-guarded and must not affect results. *)
    (match on_row with None -> () | Some f -> f r);
    r
  in
  match cost with
  | None -> parallel_map ~jobs run ws
  | Some cost ->
    let order = longest_first_order ~cost ws in
    map_in_order ~jobs ~order run ws

(** Profile the whole roster in parallel: one {!H.run_pair_profiled} per
    workload (fresh engines and a fresh profile per side — nothing shared,
    so domain fan-out cannot change any attributed number). Results come
    back in input order. *)
let run_profiles ?config ?(jobs = default_jobs ()) ?cost
    (ws : Tce_workloads.Workload.t list) : Tce_metrics.Harness.profiled list =
  let f w =
    match config with
    | None -> H.run_pair_profiled w
    | Some config -> H.run_pair_profiled ~config w
  in
  match cost with
  | None -> parallel_map ~jobs f ws
  | Some cost ->
    let order = longest_first_order ~cost ws in
    map_in_order ~jobs ~order f ws

let run_suite ?cache ?config ?jobs ?cost ?on_row
    (ws : Tce_workloads.Workload.t list) : Record.run =
  let t0 = Unix.gettimeofday () in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  (* Schedule longest-first from the committed baseline's whole-run cycle
     counts (simulated cycles track host work closely); a missing or
     unreadable baseline just leaves the input order. *)
  let cost =
    match cost with Some c -> c | None -> Store.baseline_cost_of_workload ()
  in
  (* Count only this run's lookups, even when the handle is shared. *)
  let h0, m0 = Cache.counts cache in
  let workloads = run_workloads ?cache ?config ~jobs ~cost ?on_row ws in
  let host_wall_seconds = Unix.gettimeofday () -. t0 in
  let h1, m1 = Cache.counts cache in
  let cache_stats = (h1 - h0, m1 - m0) in
  Store.make_run ?config ~jobs ~cache_stats ~host_wall_seconds workloads
