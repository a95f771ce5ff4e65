open Dfg
module ME = Machine.Machine_engine

type engine = Sim | Machine of Machine.Arch.t

type program = Graph_program of Graph.t

type t = {
  name : string;
  engine : engine;
  program : program;
  inputs : (string * Value.t list) list;
  config : Run_config.t;
  sanitize : bool;
}

let make ?(name = "job") ?(engine = Sim) ?(config = Run_config.default)
    ?(sanitize = false) program ~inputs =
  { name; engine; program; inputs; config; sanitize }

let run_config job =
  let (Graph_program g) = job.program in
  if job.sanitize then
    Run_config.with_sanitizer (Fault.Sanitizer.create g) job.config
  else job.config

let run job =
  let (Graph_program g) = job.program in
  let cfg = run_config job in
  match job.engine with
  | Sim ->
    Outcome.of_sim ~name:job.name (Sim.Engine.run_cfg cfg g ~inputs:job.inputs)
  | Machine arch ->
    Outcome.of_machine ~name:job.name
      (ME.run_cfg cfg ~arch g ~inputs:job.inputs)

let run_all ?jobs ts = Pool.map_result ?jobs run ts

let output_values = Outcome.output_values
let output_times = Outcome.output_times
