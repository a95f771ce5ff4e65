(** A simulation run as data.

    A [Job.t] names everything one run needs — the compiled graph, the
    engine and architecture, the input streams, and a {!Run_config.t}
    for faults, recovery and the rest — so experiment sweeps can be
    built as lists and handed to {!Pool} (or {!run_all}) without
    capturing 9-argument closures.

    Stateful observers: tracers and sanitizers must not be shared
    between concurrently-running jobs, so a job carries [sanitize :
    bool] and builds a {e fresh} sanitizer inside the worker; any tracer
    placed in [config] is the caller's responsibility to keep
    per-job. *)

open Dfg

type engine =
  | Sim  (** the graph-level simulator, {!Sim.Engine} *)
  | Machine of Machine.Arch.t  (** the machine model on this arch *)

type program =
  | Graph_program of Graph.t
      (** run this graph as-is; [inputs] must cover its Input cells *)

type t = {
  name : string;  (** label for reports and error messages *)
  engine : engine;
  program : program;
  inputs : (string * Value.t list) list;
      (** full packet streams, e.g. from {!Compiler.Driver.feeds} *)
  config : Run_config.t;
  sanitize : bool;  (** build a fresh sanitizer for this run *)
}

val make :
  ?name:string ->
  ?engine:engine ->
  ?config:Run_config.t ->
  ?sanitize:bool ->
  program ->
  inputs:(string * Value.t list) list ->
  t
(** Defaults: [engine = Sim], [config = Run_config.default],
    [sanitize = false], [name = "job"]. *)

val run_config : t -> Run_config.t
(** The configuration one run of the job uses: [config], plus a fresh
    sanitizer over the graph when [sanitize] is set.  Callers that
    drive an engine themselves (a resumable machine run) start from
    this. *)

val run : t -> Outcome.t
(** Execute one job in the calling domain (run on {!run_config},
    collect into the engine-independent {!Outcome.t}).
    @raise Invalid_argument etc. as the underlying engines do. *)

val run_all : ?jobs:int -> t list -> (Outcome.t, Pool.error) result list
(** {!Pool.map_result} over {!run}: domain-parallel, results in
    submission order, failures isolated per job. *)

val output_values : Outcome.t -> string -> Value.t list
val output_times : Outcome.t -> string -> int list
(** {!Outcome.output_values} / {!Outcome.output_times}. *)
