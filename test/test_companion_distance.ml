(* Generalized companion distance: the log2-level G tree (paper Section 7)
   at distances 2/4/8, all oracle-correct and at the maximal rate. *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile
module FC = Compiler.Foriter_compile

let example2 m =
  Printf.sprintf
    {|
param m = %d;
input A : array[real] [0, m];
input B : array[real] [0, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let P : real := A[i] * T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
    m

let compile ~distance m =
  let options =
    { PC.default_options with
      PC.scheme = FC.Companion;
      companion_distance = distance;
    }
  in
  D.compile_source ~options (example2 m)

let run_distance ~distance ~m ~waves =
  let st = Random.State.make [| distance; m |] in
  let wave () =
    D.wave_of_floats
      (List.init (m + 1) (fun _ -> Random.State.float st 0.9 -. 0.45))
  in
  let inputs = [ ("A", wave ()); ("B", wave ()) ] in
  let prog, cp = compile ~distance m in
  let result = D.run_cfg ~waves Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  (cp, result)

let test_values_all_distances () =
  List.iter
    (fun distance ->
      let _cp, _result = run_distance ~distance ~m:13 ~waves:3 in
      ())
    [ 2; 4; 8 ]

let test_rate_all_distances () =
  let m = 127 in
  List.iter
    (fun distance ->
      let _, result = run_distance ~distance ~m ~waves:8 in
      let interval = Sim.Metrics.output_interval result "X" in
      (* the ring merge adds [distance] seed firings per wave of m-1
         computed elements: predicted interval 2(m-1+d)/m *)
      let predicted =
        2.0 *. float_of_int (m - 1 + distance) /. float_of_int m
      in
      Alcotest.(check bool)
        (Printf.sprintf "distance %d interval %.3f ~ predicted %.3f"
           distance interval predicted)
        true
        (Float.abs (interval -. predicted) <= 0.05))
    [ 2; 4; 8 ]

let test_tree_growth () =
  (* one G level per doubling: the companion pipeline grows with
     log2(distance) *)
  let cells d =
    let _, cp = compile ~distance:d 64 in
    Graph.node_count cp.PC.cp_graph
  in
  let c2 = cells 2 and c4 = cells 4 and c8 = cells 8 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone growth (%d < %d < %d)" c2 c4 c8)
    true
    (c2 < c4 && c4 < c8);
  (* each level adds a bounded number of cells (G + two delays), plus the
     ring grows linearly in distance *)
  Alcotest.(check bool) "log-like growth" true (c8 - c4 < 3 * (c4 - c2))

let test_distance_exceeding_length () =
  (* distance larger than the wave: every element composes back to the
     seed; still correct *)
  let _cp, _result = run_distance ~distance:8 ~m:5 ~waves:3 in
  ()

let test_bad_distance_rejected () =
  match compile ~distance:3 10 with
  | _ -> Alcotest.fail "distance 3 should be rejected"
  | exception Compiler.Expr_compile.Unsupported _ -> ()

let suite =
  [
    Alcotest.test_case "values at distances 2/4/8" `Quick
      test_values_all_distances;
    Alcotest.test_case "maximal rate at distances 2/4/8" `Quick
      test_rate_all_distances;
    Alcotest.test_case "G-tree growth" `Quick test_tree_growth;
    Alcotest.test_case "distance exceeding wave length" `Quick
      test_distance_exceeding_length;
    Alcotest.test_case "non-power-of-two rejected" `Quick
      test_bad_distance_rejected;
  ]
