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

val feeds :
  ?waves:int ->
  Program_compile.compiled ->
  (string * Value.t list) list ->
  (string * Value.t list) list
(** Full packet streams for the compiled program's array inputs, in
    [cp_inputs] order: each input's one wave, replayed [waves] times
    (default 1).  Every run of a compiled program feeds its inputs
    through here.
    @raise Invalid_argument on a missing input or a wave whose length is
    not the input's declared wave size *)

val run_cfg :
  ?waves:int ->
  Run_config.t ->
  Program_compile.compiled ->
  inputs:(string * Value.t list) list ->
  Sim.Engine.result
(** Simulate the compiled program on the inputs' {!feeds}.  The
    configuration record is forwarded to {!Sim.Engine.run_cfg}.
    @raise Invalid_argument on missing inputs or wrong wave sizes *)

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
