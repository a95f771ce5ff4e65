(** One record naming every knob a simulation run accepts.

    Both engines ({!Sim.Engine} and {!Machine.Machine_engine}) grew the
    same 7–9 optional parameters — [max_time], [tracer], [fault],
    [sanitizer], [watchdog], plus engine-specific extras — and every
    caller (dfsim, faultcheck, bench, fault_diff, tests) re-plumbed them
    by hand.  [Run_config.t] replaces that plumbing: build one value with
    {!default} and the [with_*] builders, hand it to any engine's
    [run_cfg], and pass it around as data (jobs in [Exec.Job] carry one).

    A configuration is plain values apart from the [tracer], the one
    sink the caller owns: a run builds whatever per-run state it needs
    (a sanitizer when [sanitize] is set) itself, so one value can back
    any number of runs, concurrent ones included.

    Fields that only one engine honours are documented as such and
    silently ignored by the other, exactly as the old optional arguments
    were simply not offered there. *)

type recovery = {
  checkpoint_every : int;
      (** instruction-times between periodic checkpoints; [0] disables
          periodic checkpoints (the program-load snapshot remains) *)
  retransmit_after : int;  (** timeout before the first resend *)
  retransmit_backoff : int;  (** timeout multiplier per attempt (>= 1) *)
  max_retransmits : int;  (** resend budget per packet *)
}
(** Checkpoint/retransmission policy for the machine engine (defined
    here so configuration is pure data with no dependency on the
    engine).  [Recover.of_string] parses its spec form, whose keys
    [every], [timeout], [backoff] and [retries] name these fields in
    order. *)

val default_recovery : recovery
(** Checkpoint every 250 instruction-times, first resend after 48,
    backoff 2x (capped at 16 base timeouts), 8 attempts. *)

type t = {
  max_time : int;  (** simulation-time budget (default 10_000_000) *)
  tracer : Obs.Tracer.t;
      (** event sink; default {!Obs.Tracer.null} records nothing.
          Tracers are stateful and owned by the caller: give each
          concurrent run its own. *)
  fault : Fault.Fault_plan.t option;  (** deterministic perturbations *)
  sanitize : bool;
      (** shadow-check the acknowledge discipline: each run builds its
          own {!Fault.Sanitizer} over its graph.  Default [false]. *)
  watchdog : int option;
      (** no-progress window before the run is stopped with a stall
          report; [None] disables the watchdog *)
  record_firings : bool;
      (** graph engine only: keep per-node firing timestamps *)
  recovery : recovery option;
      (** machine engine only: checkpoint/retransmission policy *)
  integrity : bool;
      (** machine engine only: verify per-packet {!Integrity} checksums
          on delivery; a detected-corrupt packet is discarded (and, with
          [recovery], healed by retransmission).  Default [false]. *)
}

val default : t
(** No faults, no sanitizer, no watchdog, null tracer,
    [max_time = 10_000_000]. *)

val check : t -> (unit, string) result
(** The one validity check of a configuration: the watchdog window is
    above 0, and the recovery policy has [checkpoint_every >= 0],
    [retransmit_after > 0], [retransmit_backoff >= 1] and
    [max_retransmits >= 0].  [Error] names the spec key at fault
    ([watchdog], [every], [timeout], [backoff] or [retries]).  Both
    engines raise [Invalid_argument] with that message, and
    [Recover.of_string] returns it. *)

(** Builders, meant for pipelining:
    [Run_config.(default |> with_watchdog 500 |> with_fault plan)]. *)

val with_max_time : int -> t -> t
val with_tracer : Obs.Tracer.t -> t -> t
val with_fault : Fault.Fault_plan.t -> t -> t
val with_fault_opt : Fault.Fault_plan.t option -> t -> t
val with_sanitize : bool -> t -> t
val with_watchdog : int -> t -> t
val with_watchdog_opt : int option -> t -> t
val with_record_firings : bool -> t -> t
val with_recovery : recovery -> t -> t
val with_recovery_opt : recovery option -> t -> t
val with_integrity : bool -> t -> t
