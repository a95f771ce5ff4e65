(* Prefix sums as a degenerate linear recurrence (x_i = x_{i-1} + a_i),
   plus the paper's "multiple dimensions" extension: a 2-D forall over a
   grid, streamed row-major.

   Run with:  dune exec examples/prefix_scan.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile

let n = 128

(* Note the sentinel element A[n+1]: Val's definition part is evaluated
   once more on the terminating cycle (i = n+1), so the input array must
   cover that read; the compiled selection gate discards it. *)
let scan_source =
  Printf.sprintf
    {|
param n = %d;
input A : array[real] [1, n+1];

S : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let s : real := T[i-1] + A[i]
    in
      if i <= n then iter T := T[i: s]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
    n

let grid = 16

let grid_source =
  Printf.sprintf
    {|
param n = %d;
input G : array[real] [0, n-1] [0, n-1];

L : array[real] :=
  forall i in [1, n-2], j in [1, n-2]
  construct
    G[i-1, j] + G[i+1, j] + G[i, j-1] + G[i, j+1] - 4. * G[i, j]
  endall;
|}
    grid

let () =
  (* 1-D scan: the recurrence analyzer finds coefficient 1 (a "simple"
     for-iter) and the companion scheme runs it at the maximal rate *)
  let prog, compiled = D.compile_source scan_source in
  Printf.printf "scan compiles with scheme: %s\n"
    (List.assoc "S" compiled.PC.cp_schemes);
  let a = List.init (n + 1) (fun i -> float_of_int (i + 1)) in
  let inputs = [ ("A", D.wave_of_floats a) ] in
  let result = D.run_cfg ~waves:6 Run_config.default compiled ~inputs in
  D.check_against_oracle prog compiled result ~inputs;
  Printf.printf "scan interval: %.3f (maximal = 2.0)\n"
    (Sim.Metrics.output_interval result "S");
  (match List.rev (D.output_wave compiled result "S") with
  | last :: _ ->
    Printf.printf "sum of 1..%d computed in the pipe: %s\n" n
      (Dfg.Value.to_string last)
  | [] -> ());

  (* 2-D Laplacian stencil, streamed row-major *)
  let prog2, compiled2 = D.compile_source grid_source in
  let g =
    List.init (grid * grid) (fun k ->
        let i = k / grid and j = k mod grid in
        float_of_int ((i * i) + (j * j)) /. 100.)
  in
  let inputs2 = [ ("G", D.wave_of_floats g) ] in
  let result2 =
    D.run_cfg ~waves:4 Run_config.default compiled2 ~inputs:inputs2
  in
  D.check_against_oracle prog2 compiled2 result2 ~inputs:inputs2;
  Printf.printf "2-D Laplacian: %d interior points per wave, interval %.3f\n"
    ((grid - 2) * (grid - 2))
    (Sim.Metrics.output_interval result2 "L")
