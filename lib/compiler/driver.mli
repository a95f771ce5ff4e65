open Dfg
module A = Val_lang.Ast
module C = Val_lang.Classify

(** End-to-end driver: parse → classify → compile → simulate, with the Val
    interpreter as the semantic oracle. *)

exception Mismatch of string
(** Compiled output disagreed with the interpreter. *)

val compile_source :
  ?options:Program_compile.options ->
  ?scalar_inputs:(string * Value.t) list ->
  string ->
  A.program * Program_compile.compiled
(** Parse, type-check, classify and compile a Val source text.
    @raise Val_lang.Parser.Parse_error
    @raise Val_lang.Classify.Not_in_class
    @raise Expr_compile.Unsupported *)

val run_cfg :
  ?waves:int ->
  Run_config.t ->
  Program_compile.compiled ->
  inputs:(string * Value.t list) list ->
  Sim.Engine.result
(** Simulate the compiled program.  [inputs] gives one wave of packets per
    array input (its declared wave size); the wave is replayed [waves]
    times (default 1).  The configuration record is forwarded to
    {!Sim.Engine.run_cfg}.
    @raise Invalid_argument on missing inputs or wrong wave sizes *)

val run :
  ?waves:int ->
  ?max_time:int ->
  ?record_firings:bool ->
  ?tracer:Obs.Tracer.t ->
  ?fault:Fault.Fault_plan.t ->
  ?sanitizer:Fault.Sanitizer.t ->
  ?watchdog:int ->
  Program_compile.compiled ->
  inputs:(string * Value.t list) list ->
  Sim.Engine.result
(** Deprecated spelling of {!run_cfg}: the optional arguments are packed
    into a {!Run_config.t} and forwarded. *)

val wave_of_floats : float list -> Value.t list

val output_wave :
  Program_compile.compiled -> Sim.Engine.result -> string -> Value.t list
(** One complete wave of an output stream (waves are identical since the
    input wave is replayed verbatim). *)

val oracle_outputs :
  A.program ->
  inputs:(string * Value.t list) list ->
  (string * Value.t list) list
(** Interpreter results flattened to streams (row-major for 2-D). *)

val check_against_oracle :
  ?eps:float ->
  A.program ->
  Program_compile.compiled ->
  Sim.Engine.result ->
  inputs:(string * Value.t list) list ->
  unit
(** Compare every exposed output's final wave against the interpreter.
    @raise Mismatch with a description of the first disagreement *)
