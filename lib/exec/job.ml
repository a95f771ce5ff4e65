open Dfg
module ME = Machine.Machine_engine

type engine = Sim | Machine of Machine.Arch.t

type program = Graph_program of Graph.t | Arena_program of Arena.t

type t = {
  name : string;
  engine : engine;
  program : program;
  inputs : (string * Value.t list) list;
  config : Run_config.t;
}

let make ?(name = "job") ?(engine = Sim) ?(config = Run_config.default) program
    ~inputs =
  { name; engine; program; inputs; config }

let graph job =
  match job.program with
  | Graph_program g -> g
  | Arena_program a -> a.Arena.graph

let arena job =
  match job.program with
  | Graph_program g -> Arena.build g
  | Arena_program a -> a

let run job =
  let a = arena job in
  match job.engine with
  | Sim ->
    Outcome.of_sim ~name:job.name
      (Sim.Engine.run_arena job.config a ~inputs:job.inputs)
  | Machine arch ->
    Outcome.of_machine ~name:job.name
      (ME.run_arena job.config ~arch a ~inputs:job.inputs)

let output_values = Outcome.output_values
let output_times = Outcome.output_times
