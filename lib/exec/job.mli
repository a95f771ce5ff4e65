(** A simulation run as data.

    A [Job.t] names everything one run needs — the compiled graph, the
    engine and architecture, the input streams, and a {!Run_config.t}
    for faults, recovery, the sanitizer and the rest — so experiment
    sweeps can be built as lists and handed to {!Pool} without
    capturing 9-argument closures.

    A job runs its [config] as it is.  The engine builds a fresh
    sanitizer for each run when [config.sanitize] is set, so one job
    can run any number of times, concurrently included; a tracer placed
    in [config] is the one sink the caller owns and must keep
    per-job. *)

open Dfg

type engine =
  | Sim  (** the graph-level simulator, {!Sim.Engine} *)
  | Machine of Machine.Arch.t  (** the machine model on this arch *)

type program =
  | Graph_program of Graph.t
      (** run this graph as-is; [inputs] must cover its Input cells *)
  | Arena_program of Arena.t
      (** run this arena, lowered beforehand by {!Arena.build} (once
          per program: dfserve keeps one per compiled-program cache
          entry); the same run as [Graph_program arena.graph] without
          the lowering *)

type t = {
  name : string;  (** label for reports and error messages *)
  engine : engine;
  program : program;
  inputs : (string * Value.t list) list;
      (** full packet streams, e.g. from {!Compiler.Driver.feeds} *)
  config : Run_config.t;
}

val make :
  ?name:string ->
  ?engine:engine ->
  ?config:Run_config.t ->
  program ->
  inputs:(string * Value.t list) list ->
  t
(** Defaults: [engine = Sim], [config = Run_config.default],
    [name = "job"]. *)

val graph : t -> Graph.t
(** The program's graph (an arena's own [graph]). *)

val arena : t -> Arena.t
(** The arena the job runs on: a [Graph_program] is lowered here, an
    [Arena_program]'s is returned as it is. *)

val run : t -> Outcome.t
(** Execute one job in the calling domain (run on [config], collect
    into the engine-independent {!Outcome.t}).  Callers that drive an
    engine themselves (a resumable machine run) start from [config]
    and {!arena} too.
    @raise Invalid_argument etc. as the underlying engines do. *)

val output_values : Outcome.t -> string -> Value.t list
val output_times : Outcome.t -> string -> int list
(** {!Outcome.output_values} / {!Outcome.output_times}. *)
