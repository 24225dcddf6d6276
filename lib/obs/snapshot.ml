(** Periodic counter sampling (see snapshot.mli). *)

type sample = {
  at : int;
  deopts : int;
  cc_occupancy : int;
  cc_set_occupancy : int array;
  cc_conflicts : int;
  heap_bytes : int;
  prof_costs : (string * int) array;
}

type t = {
  every : int;
  mutable next_at : int;
  mutable acc : sample list;  (** newest first *)
}

let disabled = { every = 0; next_at = max_int; acc = [] }

let create ~every =
  if every <= 0 then disabled else { every; next_at = 0; acc = [] }

let active t = t.every > 0

let tick t ~now f =
  if t.every > 0 && now >= t.next_at then begin
    t.next_at <- now + t.every;
    t.acc <- f () :: t.acc
  end

let samples t = List.rev t.acc
