(** Differential fault harness — the executable statement of the paper's
    latency-insensitivity claim.

    Section 3's acknowledge discipline makes a correct pipelined graph a
    Kahn network: per-arc packet order cannot change under added latency,
    so a run perturbed by a {e delay-only} {!Fault.Fault_plan} must
    produce exactly the same output streams as the clean run — only the
    arrival times move.  [Fault_diff] runs faulted-vs-clean on either
    engine and reports whether the streams agree.

    For plans that break the protocol on purpose ([dup], [drop-ack]),
    equality is not expected; the harness still reports the faulted
    run's violations and stall report so tests can assert the sanitizer
    caught the corruption. *)

open Dfg

type mismatch = {
  m_stream : string;
  m_index : int;
  m_clean : Value.t option;  (** [None]: the faulted run had extra packets *)
  m_faulted : Value.t option;  (** [None]: the faulted run lost packets *)
}

type outcome = {
  equal : bool;  (** every output stream identical, value for value *)
  mismatches : mismatch list;  (** first few disagreements (capped) *)
  clean_end : int;
  faulted_end : int;
  faulted_stall : Fault.Stall_report.t option;
  faulted_violations : Fault.Violation.t list;
  faulted_recoveries : int;
  (** crash recoveries the faulted machine run performed (0 for sim) *)
  faulted_snapshot : Machine.Machine_engine.snapshot option;
  (** final state of the faulted machine run — serializable with
      [Recover.Checkpoint] when a failure needs a post-mortem dump
      ([None] for sim runs) *)
  clean_digest : int;
  (** {!Integrity.digest_outputs} of the clean run's streams *)
  faulted_digest : int;
  (** digest of the faulted run's streams.  Digests ignore arrival
      times, so [equal] implies [clean_digest = faulted_digest]; the
      digest is the cheap whole-run summary batch harnesses log and
      compare. *)
  diagnosis : string option;
  (** post-mortem for the silent-corruption failure mode: set when the
      streams mismatch, the plan injects corruption, and integrity
      checking was off — names the first diverging packet, its output
      cell and arrival time, and points at corruption as the likely
      cause.  [None] otherwise. *)
}

val mismatch_to_string : mismatch -> string

val sim :
  ?watchdog:int ->
  plan:Fault.Fault_plan.t ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  outcome
(** Run [g] clean and under [plan] on {!Sim.Engine} and compare output
    streams (value for value, exact equality: injected latency must
    not change a single bit).  The clean run uses
    {!Run_config.default}; the faulted run adds the plan, a sanitizer
    and the [watchdog]. *)

val machine :
  ?watchdog:int ->
  ?arch:Machine.Arch.t ->
  ?recovery:Run_config.recovery ->
  ?integrity:bool ->
  plan:Fault.Fault_plan.t ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  outcome
(** As {!sim} on {!Machine.Machine_engine} (default
    {!Machine.Arch.default}; both runs start from
    {!Machine.Machine_engine.default_config}), which honours the full
    fault plan: delays, duplicated packets, dropped results and
    acknowledges, PE stalls, FU/AM slowdowns, payload corruption, and a
    fail-stop PE crash.
    [recovery] attaches a checkpoint/retransmission policy to the
    {e faulted} run only — the crash differential asserts a recovered
    machine still matches the clean one value for value.  [integrity]
    (default false) turns on per-packet checksum verification in the
    faulted run; combined with [recovery] it makes corruption plans
    survivable (detect → discard → retransmit), which the differential
    then certifies bit-identical. *)
