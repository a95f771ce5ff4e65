(** Deterministic delta-debugging over the {!Fault_plan.spec} lattice.

    A fault differential (bin/faultcheck.exe) that finds a failure
    holds a 12-parameter fault spec; most of those parameters are
    noise.  [minimize] walks the spec down a lattice of strictly-smaller
    candidates — zero out each probability, remove the crash, halve
    surviving probabilities and magnitudes, narrow the crash window —
    re-running the caller's oracle at each step and adopting the first
    candidate that still fails, until no candidate fails (ddmin with a
    fixed scan order).

    Determinism: the candidate order is fixed, and the oracle is
    expected to be a pure function of the spec (every engine run is —
    fault decisions are keyed hashes, see {!Fault_plan}).  Same failing
    spec + same oracle ⇒ same minimal spec, on every run and under any
    worker count.

    Termination: every adopted candidate strictly decreases a finite
    measure (count of nonzero fields, integer magnitudes, and
    probabilities quantized at 0.005 — halving stops below that, zeroing
    covers the rest), and a [max_attempts] backstop bounds pathological
    oracles. *)

type step = {
  s_desc : string;  (** e.g. ["zero delay"], ["halve corrupt"] *)
  s_spec : Fault_plan.spec;  (** the spec after this step *)
}

type result = {
  minimal : Fault_plan.spec;
  steps : step list;  (** adopted shrink steps, in order *)
  attempts : int;  (** oracle invocations spent *)
}

val minimize :
  still_fails:(Fault_plan.spec -> bool) -> Fault_plan.spec -> result
(** [minimize ~still_fails spec] assumes [still_fails spec] holds (the
    caller observed the failure); if it does not, the result is simply
    [spec] unchanged.  The oracle is never called on [spec] itself, only
    on candidates. *)

val no_larger : Fault_plan.spec -> Fault_plan.spec -> bool
(** [no_larger a b]: every fault field of [a] is component-wise no
    larger than [b]'s (crash either equal or removed).  Holds between
    [minimal] and the input by construction; with [steps <> []] it is
    strict. *)
