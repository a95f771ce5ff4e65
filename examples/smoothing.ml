(* The paper's Example 1: a smoothing (relaxation) step with boundary
   conditions, compiled to a fully pipelined instruction graph (Figure 6).
   Demonstrates window selection gates, static boundary conditions folded
   to boolean control sequences, and the merge of boundary/interior rules.

   Run with:  dune exec examples/smoothing.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile

let m = 126

let source =
  Printf.sprintf
    {|
param m = %d;
input C : array[real] [0, m+1];
input B : array[real] [0, m+1];

A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0) | (i = m+1) then C[i]          %% boundary rule
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])   %% interior smoothing
      endif;
  construct
    B[i] * (P * P)
  endall;
|}
    m

let () =
  let prog, compiled = D.compile_source source in
  print_endline "instruction graph (DOT written to smoothing.dot):";
  Dfg.Dot.write_file "smoothing.dot" compiled.PC.cp_graph;
  List.iter
    (fun (op, k) -> Printf.printf "  %-10s x%d\n" op k)
    (Dfg.Graph.opcode_census compiled.PC.cp_graph);

  (* a bumpy signal to smooth *)
  let c =
    List.init (m + 2) (fun i ->
        sin (float_of_int i /. 5.0) +. (0.3 *. float_of_int (i mod 3)))
  in
  let b = List.init (m + 2) (fun _ -> 1.0) in
  let inputs = [ ("C", D.wave_of_floats c); ("B", D.wave_of_floats b) ] in
  let cfg = Run_config.(default |> with_record_firings true) in
  let result = D.run_cfg ~waves:6 cfg compiled ~inputs in
  D.check_against_oracle prog compiled result ~inputs;
  print_endline "outputs match the Val interpreter";

  Printf.printf "initiation interval: %.3f (maximal = 2.0)\n"
    (Sim.Metrics.output_interval result "A");
  Printf.printf "slowest cell period: %.3f\n"
    (Sim.Metrics.busiest_interval result);

  (* watch the pipe fill: firing timeline of the first cells *)
  print_endline "pipeline fill (first 60 time steps, * = firing):";
  print_string
    (Sim.Timeline.render ~width:60
       ~cells:(List.init (min 8 (Dfg.Graph.node_count compiled.PC.cp_graph)) Fun.id)
       compiled.PC.cp_graph result);

  (* show the smoothing effect on a few interior points *)
  let out = D.output_wave compiled result "A" in
  print_endline "  i     C[i]      A[i]";
  List.iteri
    (fun i v ->
      if i > 0 && i < 6 then
        Printf.printf "%3d  %+.4f  %+.4f\n" i (List.nth c i)
          (Dfg.Value.to_real v))
    out
