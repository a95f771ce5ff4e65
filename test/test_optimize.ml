(* CSE tests: duplicated subexpressions across blocks are merged, values
   are preserved, and full pipelining is retained. *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile

(* two blocks computing overlapping windows and identical subexpressions *)
let source m =
  Printf.sprintf
    {|
param m = %d;
input C : array[real] [0, m+1];

S : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endall;

T : array[real] :=
  forall i in [1, m]
  construct 0.5 * (C[i-1] + 2.*C[i] + C[i+1]) endall;
|}
    m

let compile ~cse m =
  let options = { PC.default_options with PC.cse } in
  D.compile_source ~options (source m)

let test_reduces_cells () =
  let m = 16 in
  let _, plain = compile ~cse:false m in
  let _, optimized = compile ~cse:true m in
  let n1 = Graph.node_count plain.PC.cp_graph in
  let n2 = Graph.node_count optimized.PC.cp_graph in
  Alcotest.(check bool)
    (Printf.sprintf "CSE shrinks the graph (%d -> %d)" n1 n2)
    true (n2 < n1)

let test_values_preserved () =
  let m = 12 in
  let st = Random.State.make [| 21 |] in
  let inputs =
    [ ("C",
       List.init (m + 2) (fun _ -> Value.Real (Random.State.float st 1.0))) ]
  in
  let run cse =
    let prog, cp = compile ~cse m in
    let result = D.run_cfg ~waves:3 Run_config.default cp ~inputs in
    D.check_against_oracle prog cp result ~inputs;
    ( List.map Value.to_real (D.output_wave cp result "S"),
      List.map Value.to_real (D.output_wave cp result "T") )
  in
  let s1, t1 = run false and s2, t2 = run true in
  Alcotest.(check (list (float 1e-12))) "S identical" s1 s2;
  Alcotest.(check (list (float 1e-12))) "T identical" t1 t2

let test_rate_preserved () =
  let m = 62 in
  let st = Random.State.make [| 22 |] in
  let inputs =
    [ ("C",
       List.init (m + 2) (fun _ -> Value.Real (Random.State.float st 1.0))) ]
  in
  let _, cp = compile ~cse:true m in
  let result = D.run_cfg ~waves:8 Run_config.default cp ~inputs in
  let predicted = 2.0 *. float_of_int (m + 2) /. float_of_int m in
  Alcotest.(check (float 0.1)) "still input-limited pipelined" predicted
    (Sim.Metrics.output_interval result "S")

let test_idempotent () =
  let _, cp = compile ~cse:true 10 in
  Alcotest.(check int) "second pass removes nothing" 0
    (Optimize.cse_stats cp.PC.cp_graph)

let test_loops_untouched () =
  (* for-iter rings must not be merged even when two identical loops
     exist *)
  let source =
    {|
param m = 9;
input A : array[real] [0, m];
input B : array[real] [0, m];

X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let P : real := A[i] * T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;

Y : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let P : real := A[i] * T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
  in
  let prog, cp = D.compile_source source in
  let st = Random.State.make [| 23 |] in
  let wave () =
    List.init 10 (fun _ -> Value.Real (Random.State.float st 0.8))
  in
  let inputs = [ ("A", wave ()); ("B", wave ()) ] in
  let result = D.run_cfg ~waves:3 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  Alcotest.(check (list (float 1e-12)))
    "identical loops produce identical streams"
    (List.map Value.to_real (D.output_wave cp result "X"))
    (List.map Value.to_real (D.output_wave cp result "Y"))

(* Two blocks squaring the same stream share one MULT fed twice by one
   producer, also when a for-iter ring elsewhere in the program means
   the graph as a whole has no topological order. *)
let squares_source ~with_loop =
  Printf.sprintf
    {|
param m = 9;
input A : array[real] [0, m];
input B : array[real] [0, m];
input C : array[real] [0, m];

S : array[real] :=
  forall i in [0, m] construct C[i] * C[i] + 1. endall;

T : array[real] :=
  forall i in [0, m] construct C[i] * C[i] + 2. endall;
%s|}
    (if not with_loop then ""
     else
       {|
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let P : real := A[i] * T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|})

let test_squares_shared () =
  List.iter
    (fun with_loop ->
      let _, cp = D.compile_source (squares_source ~with_loop) in
      let g = cp.PC.cp_graph in
      let prods = Graph.producers g in
      let squares =
        Graph.fold_nodes g ~init:0 ~f:(fun acc nd ->
            match (nd.Graph.op, prods.(nd.Graph.id)) with
            | Opcode.Arith Opcode.Mul, [| [| p |]; [| q |] |] when p = q ->
              acc + 1
            | _ -> acc)
      in
      Alcotest.(check int)
        (if with_loop then "beside a for-iter ring" else "alone")
        1 squares)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "CSE reduces cells" `Quick test_reduces_cells;
    Alcotest.test_case "CSE preserves values" `Quick test_values_preserved;
    Alcotest.test_case "CSE preserves rate" `Quick test_rate_preserved;
    Alcotest.test_case "CSE is idempotent" `Quick test_idempotent;
    Alcotest.test_case "feedback loops untouched" `Quick test_loops_untouched;
    Alcotest.test_case "CSE merges a square beside a feedback ring" `Quick
      test_squares_shared;
  ]
