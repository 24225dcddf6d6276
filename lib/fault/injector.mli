(** The deterministic, seeded fault injector.

    One injector is threaded through an engine instance (Class Cache,
    machine and engine consult it at their fault points). All decisions come
    from a splitmix64 PRNG seeded at creation, so a campaign is replayable
    from [(seed, spec)]; every fired fault is recorded as a
    [Tce_obs.Trace.Fault_injected] event when tracing is on.

    The disabled path mirrors [Tce_obs.Trace.null]: call sites guard their
    hooks with {!armed}, so an engine running with {!null} injects nothing,
    allocates nothing, and its simulated cycle counts are bit-identical to a
    build without the fault layer (asserted by test/test_fault.ml). *)

type t

(** The shared disarmed injector: {!armed} is false, {!fire} never fires. *)
val null : t

(** A fresh injector. [trace] (default [Trace.null]) receives
    [Fault_injected] events; the engine re-installs its own trace via
    {!set_trace}. *)
val create : ?trace:Tce_obs.Trace.t -> seed:int -> Spec.t -> t

(** Are any fault points armed? Call sites must guard hooks with this so
    the unfaulted path stays zero-cost. *)
val armed : t -> bool

val set_trace : t -> Tce_obs.Trace.t -> unit

(** [fire t point] consumes one opportunity for [point] and reports whether
    the fault fires now (always false for unarmed points). The optional
    site coordinates only annotate the emitted trace event. *)
val fire : t -> ?classid:int -> ?line:int -> ?pos:int -> Point.t -> bool

(** [quiet ~seed rule ~opportunities:n]: an injector for [[rule]] seeded
    [seed] fires at none of its first [n] opportunities. Until its first
    fire, a run armed with [[rule]] executes exactly like one armed with
    rules that never fire ([point@max_int]); so when such a run offered
    [rule]'s point [n] opportunities and [quiet] holds, the run armed with
    [[rule]] never fires. *)
val quiet : seed:int -> Spec.rule -> opportunities:int -> bool

(** Record victims whose deopt notification was dropped ([Lost_deopt]). *)
val stash_lost : t -> int list -> unit

(** All victims dropped so far (campaign accounting). *)
val lost : t -> int list

(** Park victims of a delayed exception; they are re-delivered by
    {!tick_delayed} after the [cc-delay] rule's parameter (default 8)
    further Class Cache accesses. *)
val stash_delayed : t -> int list -> unit

(** Advance the delay pipeline by one Class Cache access and return the
    victims whose delivery is now due. *)
val tick_delayed : t -> int list

val delivered_late : t -> int

(** The engine's retire-path invariant check caught an injected
    inconsistency and fell back to checked execution. *)
val note_detected : t -> unit

val detections : t -> int

(** Fires so far, per point / total / as an assoc over armed points. *)
val fires : t -> Point.t -> int

(** Opportunities seen so far for [point] (moments it could have fired).
    With an armed-but-inert rule ([point@N] for huge [N]) this counts a
    run's opportunities, which pins the [N] for a deterministic one-shot
    replay. *)
val opportunities : t -> Point.t -> int

val total_fires : t -> int

(** One-line human summary, e.g. for [tcejs run --fault-spec] stderr. *)
val summary : t -> string
