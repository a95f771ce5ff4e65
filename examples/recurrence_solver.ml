(* First-order linear recurrences: x_i = A_i * x_{i-1} + B_i (the paper's
   Example 2) — the forward-elimination kernel of tridiagonal solvers and
   IIR filters.  Compiled two ways:

   - Todd's direct scheme (Figure 7): a 3-cell feedback loop, initiation
     rate limited to 1/3;
   - the companion scheme (Figure 8): the recurrence analyzer extracts
     the coefficients symbolically, builds the companion pipeline
     c_i = G(a_i, a_{i-1}), and the even 4-cell loop with two circulating
     tokens restores the maximal rate 1/2.

   Run with:  dune exec examples/recurrence_solver.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile
module FC = Compiler.Foriter_compile

let m = 256

let source =
  Printf.sprintf
    {|
param m = %d;
input A : array[real] [0, m];
input B : array[real] [0, m];

X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let P : real := A[i] * T[i-1] + B[i]
    in
      if i < m then
        iter T := T[i: P]; i := i + 1 enditer
      else T
      endif
    endlet
  endfor;
|}
    m

let () =
  let st = Random.State.make [| 2026 |] in
  let a = List.init (m + 1) (fun _ -> Random.State.float st 0.8) in
  let b = List.init (m + 1) (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let inputs = [ ("A", D.wave_of_floats a); ("B", D.wave_of_floats b) ] in

  let table = Df_util.Table.create [ "scheme"; "cells"; "interval"; "rate" ] in
  let last = ref [] in
  List.iter
    (fun (label, scheme) ->
      let options = { PC.default_options with PC.scheme } in
      let prog, compiled = D.compile_source ~options source in
      let result = D.run_cfg ~waves:8 Run_config.default compiled ~inputs in
      D.check_against_oracle prog compiled result ~inputs;
      let interval = Sim.Metrics.output_interval result "X" in
      Df_util.Table.add_row table
        [
          label;
          string_of_int (Dfg.Graph.node_count compiled.PC.cp_graph);
          Printf.sprintf "%.3f" interval;
          Printf.sprintf "1/%.2f" interval;
        ];
      last := D.output_wave compiled result "X")
    [ ("todd (fig 7)", FC.Todd); ("companion (fig 8)", FC.Companion) ];
  Df_util.Table.print table;
  print_endline "both schemes produce identical, interpreter-checked values";

  let firsts = List.filteri (fun i _ -> i < 5) !last in
  Printf.printf "x[0..4] = %s\n"
    (String.concat ", "
       (List.map (fun v -> Printf.sprintf "%.4f" (Dfg.Value.to_real v)) firsts))
