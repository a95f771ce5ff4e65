(* Quickstart: compile a small Val program to static dataflow machine
   code, simulate it, and check full pipelining.

   Run with:  dune exec examples/quickstart.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile

let source =
  {|
param n = 63;
input A : array[real] [0, n];
input B : array[real] [0, n];

% the paper's Figure 2 expression, applied elementwise
R : array[real] :=
  forall i in [0, n]
    y : real := A[i] * B[i];
  construct
    (y + 2.) * (y - 3.)
  endall;
|}

let () =
  (* parse -> typecheck -> classify -> compile -> balance *)
  let prog, compiled = D.compile_source source in
  Printf.printf "compiled %d instruction cells, %d arcs\n"
    (Dfg.Graph.node_count compiled.PC.cp_graph)
    (Dfg.Graph.arc_count compiled.PC.cp_graph);
  List.iter
    (fun (op, k) -> Printf.printf "  %-10s x%d\n" op k)
    (Dfg.Graph.opcode_census compiled.PC.cp_graph);

  (* one wave of inputs, replayed 8 times for a steady-state measurement *)
  let n = 64 in
  let a = List.init n (fun i -> float_of_int i /. 8.0) in
  let b = List.init n (fun i -> 1.0 +. (float_of_int (i mod 5) /. 10.)) in
  let inputs = [ ("A", D.wave_of_floats a); ("B", D.wave_of_floats b) ] in
  let result = D.run_cfg ~waves:8 Run_config.default compiled ~inputs in

  (* correctness: the interpreter is the oracle *)
  D.check_against_oracle prog compiled result ~inputs;
  print_endline "outputs match the Val interpreter";

  (* the paper's claim: one result every ~2 instruction times *)
  let interval = Sim.Metrics.output_interval result "R" in
  Printf.printf "steady-state initiation interval: %.3f (maximal = 2.0)\n"
    interval;
  let first = List.filteri (fun i _ -> i < 4) (D.output_wave compiled result "R") in
  Printf.printf "first results: %s\n"
    (String.concat ", " (List.map Dfg.Value.to_string first))
