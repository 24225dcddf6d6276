(** Fault-campaign specifications: which fault points are armed, with what
    trigger. The concrete syntax (accepted by [--fault-spec] on both the
    [faults] and the [run] subcommand of [bench/main.exe]) is a
    comma-separated list of rules:

    {v
      point            fire on every opportunity (probability 1)
      point:P          fire with probability P in [0, 1] per opportunity
      point:P:Q        same, with integer parameter Q (cc-delay: deliver the
                       exception Q Class Cache accesses late; default 8)
      point@N          fire exactly once, on the Nth opportunity (1-based)
    v}

    e.g. ["lost-deopt:0.5,cc-evict:0.02"] or ["cc-delay@3"]. An opportunity
    is one moment where the point could fire (a Class Cache access for the
    CC/CL points, a delivered deopt set for [lost-deopt]/[cc-delay], an OSR
    for [osr-fail]). All draws come from the injector's seeded PRNG, so a
    campaign is replayable from [(seed, spec)] alone. *)

type trigger =
  | Prob of float  (** Bernoulli draw per opportunity *)
  | At of int  (** one-shot: fires on exactly the Nth opportunity *)

type rule = { point : Point.t; trigger : trigger; param : int option }

type t = rule list

(** Parse the concrete syntax above. Rejects unknown points, out-of-range
    probabilities and duplicate points. *)
val parse : string -> (t, string) result

(** Round-trippable rendering ([parse (to_string s) = Ok s]). *)
val to_string : t -> string

(** The default campaign: every fault point armed at a moderate seeded rate
    (documented in lib/fault/README.md). *)
val default : t
