(* Tour of the scientific-kernel suite: compile every kernel, verify it
   against its independent OCaml reference, and report size and measured
   throughput next to the theoretical prediction.

   Run with:  dune exec examples/kernels_tour.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile
module K = Kernels

let () =
  let n = 96 in
  let table =
    Df_util.Table.create
      [ "kernel"; "blocks"; "cells"; "predicted"; "measured"; "scheme" ]
  in
  List.iter
    (fun (k : K.kernel) ->
      let st = Random.State.make [| 17 |] in
      let inputs =
        k.K.inputs n st
        @ List.map (fun (name, v) -> (name, [ v ])) k.K.scalar_inputs
      in
      let prog, compiled =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
      in
      let result = D.run_cfg ~waves:8 Run_config.default compiled ~inputs in
      D.check_against_oracle prog compiled result ~inputs;
      let got =
        List.map Dfg.Value.to_real (D.output_wave compiled result k.K.output)
      in
      let expected = k.K.reference n inputs in
      List.iter2
        (fun a b -> assert (Float.abs (a -. b) <= 1e-9))
        expected got;
      let schemes =
        String.concat "+"
          (List.sort_uniq compare (List.map snd compiled.PC.cp_schemes))
      in
      Df_util.Table.add_row table
        [
          k.K.name;
          string_of_int k.K.blocks;
          string_of_int (Dfg.Graph.node_count compiled.PC.cp_graph);
          Printf.sprintf "%.3f" (k.K.predicted_interval n);
          Printf.sprintf "%.3f" (Sim.Metrics.output_interval result k.K.output);
          schemes;
        ])
    K.all;
  Df_util.Table.print table;
  print_endline
    "every kernel verified against the Val interpreter AND an independent \
     OCaml reference"
