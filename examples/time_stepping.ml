(* Time-stepped simulation: the paper's intended use of array memories.

   "The array memories are used only for data that must be held for a long
   time interval ... for example, the data produced by one time step of a
   physics simulation which will not be used until the computation for the
   next time step begins."  (Section 2)

   Here an explicit-Euler heat equation step is compiled once as a fully
   pipelined dataflow program; the host plays the role of the array
   memory, holding each step's output field and replaying it as the next
   step's input wave.  Within a step, everything streams at the maximal
   rate; between steps, the field is "stored".

   Run with:  dune exec examples/time_stepping.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile

let m = 94
let steps = 40
let alpha = 0.2

(* one explicit heat-equation step with fixed boundary values *)
let source =
  Printf.sprintf
    {|
param m = %d;
input U : array[real] [0, m+1];

V : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0) | (i = m+1) then U[i]
    else U[i] + %f * (U[i-1] - 2.*U[i] + U[i+1])
    endif
  endall;
|}
    m alpha

let () =
  let prog, compiled = D.compile_source source in
  Printf.printf "heat step compiled to %d cells\n"
    (Dfg.Graph.node_count compiled.PC.cp_graph);

  (* initial condition: a hot spike in the middle of a cold rod *)
  let field =
    ref
      (List.init (m + 2) (fun i ->
           if i >= (m / 2) - 2 && i <= (m / 2) + 2 then 1.0 else 0.0))
  in
  let energy xs = List.fold_left ( +. ) 0.0 xs in
  let initial_energy = energy !field in
  for step = 1 to steps do
    let inputs = [ ("U", D.wave_of_floats !field) ] in
    let result = D.run_cfg Run_config.default compiled ~inputs in
    (* checked against the interpreter every 10th step *)
    if step mod 10 = 0 then D.check_against_oracle prog compiled result ~inputs;
    field := List.map Dfg.Value.to_real (D.output_wave compiled result "V")
  done;
  Printf.printf "after %d steps: energy %.6f (started %.6f, conserved: %b)\n"
    steps (energy !field) initial_energy
    (Float.abs (energy !field -. initial_energy) < 1e-9);
  (* the spike has diffused: the profile is smooth and low *)
  let peak = List.fold_left Float.max neg_infinity !field in
  Printf.printf "peak temperature %.4f (was 1.0)\n" peak;
  print_string "profile: ";
  List.iteri
    (fun i v ->
      if i mod 8 = 0 then
        print_string
          (if v > 0.15 then "#" else if v > 0.05 then "+" else "."))
    !field;
  print_newline ();
  assert (peak < 0.5)
