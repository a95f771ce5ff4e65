(** Recovery policies and checkpoint/restart orchestration for the
    machine engine.

    The mechanisms live in {!Machine.Machine_engine} (they need the
    engine's internals); this module owns the user-facing surface: the
    policy mini-language the CLIs accept, and the {!Checkpoint} format
    a paused machine is saved in and resumed from. *)

module Checkpoint = Checkpoint
(** Versioned serialization of machine snapshots. *)

val of_string : string -> (Run_config.recovery, string) result
(** Parse a policy spec: comma-separated [key=int] pairs over
    [every] (checkpoint interval; 0 disables periodic checkpoints),
    [timeout] (first-resend timeout), [backoff] (timeout multiplier),
    [retries] (resend budget).  Omitted keys keep their
    {!Run_config.default_recovery} values; [""] is the default policy.
    The result must pass {!Run_config.check}; [Error] carries its
    message otherwise. *)

val to_string : Run_config.recovery -> string
(** Canonical spec; [of_string (to_string p) = Ok p]. *)

val describe : Run_config.recovery -> string
(** One-line human-readable rendering. *)
