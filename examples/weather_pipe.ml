(* A pipe-structured program in the style the paper attributes to its
   application codes ("Modeling the Weather with a Data Flow
   Supercomputer"): several forall/for-iter blocks connected as an acyclic
   producer/consumer graph, compiled and balanced into one fully pipelined
   machine program (Theorem 4), then also run on the machine-level
   simulator to measure the array-memory traffic claim of Section 2.

   Run with:  dune exec examples/weather_pipe.exe *)

module D = Compiler.Driver
module PC = Compiler.Program_compile
module ME = Machine.Machine_engine
module Arch = Machine.Arch

let m = 62

(* four blocks: smooth -> flux -> integrate (recurrence) -> blend *)
let source =
  Printf.sprintf
    {|
param m = %d;
input P : array[real] [0, m+1];   %% pressure field
input V : array[real] [0, m+1];   %% velocity field

S : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0) | (i = m+1) then P[i]
    else 0.25 * (P[i-1] + 2.*P[i] + P[i+1])
    endif
  endall;

F : array[real] :=
  forall i in [1, m]
  construct
    0.5 * (S[i+1] - S[i-1]) * V[i]
  endall;

Q : array[real] :=
  for
    i : integer := 2;
    T : array[real] := [1: 0]
  do
    let acc : real := 0.98 * T[i-1] + F[i]
    in
      if i < m then iter T := T[i: acc]; i := i + 1 enditer else T endif
    endlet
  endfor;

W : array[real] :=
  forall i in [1, m-1]
  construct
    V[i] + min(Q[i], 1.5)
  endall;
|}
    m

let () =
  let prog, compiled = D.compile_source source in
  Printf.printf "pipe-structured program: %d blocks, %d cells\n"
    (List.length compiled.PC.cp_outputs)
    (Dfg.Graph.node_count compiled.PC.cp_graph);
  List.iter
    (fun (blk, scheme) -> Printf.printf "  block %-2s -> %s\n" blk scheme)
    compiled.PC.cp_schemes;

  let st = Random.State.make [| 7 |] in
  let field () =
    List.init (m + 2) (fun i ->
        sin (float_of_int i /. 7.) +. Random.State.float st 0.1)
  in
  let inputs =
    [ ("P", D.wave_of_floats (field ())); ("V", D.wave_of_floats (field ())) ]
  in
  let result = D.run_cfg ~waves:6 Run_config.default compiled ~inputs in
  D.check_against_oracle prog compiled result ~inputs;
  print_endline "all four block outputs match the Val interpreter";
  Printf.printf "end-to-end initiation interval at W: %.3f\n"
    (Sim.Metrics.output_interval result "W");

  (* machine-level: streamed arrays vs the stored-array baseline *)
  let machine_inputs =
    List.map
      (fun (name, w) ->
        (name, List.concat_map (fun _ -> w) (List.init 4 Fun.id)))
      inputs
  in
  let table =
    Df_util.Table.create
      [ "array policy"; "time"; "AM ops"; "AM fraction"; "RN packets" ]
  in
  List.iter
    (fun policy ->
      let arch = { Arch.default with Arch.array_policy = policy } in
      let r = ME.run_cfg ME.default_config ~arch compiled.PC.cp_graph ~inputs:machine_inputs in
      Df_util.Table.add_row table
        [
          (match policy with
          | Arch.Streamed -> "streamed (paper)"
          | Arch.Stored -> "stored baseline");
          string_of_int r.ME.end_time;
          string_of_int r.ME.stats.ME.am_ops;
          Printf.sprintf "%.3f" (ME.am_fraction r.ME.stats);
          string_of_int r.ME.stats.ME.result_packets;
        ])
    [ Arch.Streamed; Arch.Stored ];
  Df_util.Table.print table
