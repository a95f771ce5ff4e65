(* Driver-level contract tests: input validation, mismatch detection,
   scalar-input plumbing, exposure options. *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile

let source =
  {|
param n = 7;
input B : array[real] [0, n];
A : array[real] := forall i in [0, n] construct 2. * B[i] endall;
|}

let wave () = D.wave_of_floats (List.init 8 (fun i -> float_of_int i))

let test_missing_input_rejected () =
  let _, cp = D.compile_source source in
  match D.run_cfg Run_config.default cp ~inputs:[] with
  | _ -> Alcotest.fail "expected missing-input error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the input" true
      (String.length msg > 0)

let test_wrong_wave_size_rejected () =
  let _, cp = D.compile_source source in
  match
    D.run_cfg Run_config.default cp ~inputs:[ ("B", D.wave_of_floats [ 1.; 2. ]) ]
  with
  | _ -> Alcotest.fail "expected wave-size error"
  | exception Invalid_argument _ -> ()

let test_missing_scalar_input_rejected () =
  let src =
    {|
param n = 3;
input q : real;
input B : array[real] [0, n];
A : array[real] := forall i in [0, n] construct q * B[i] endall;
|}
  in
  (match D.compile_source src with
  | _ -> Alcotest.fail "expected missing scalar binding error"
  | exception Invalid_argument _ -> ());
  (* and with the binding, it compiles and runs *)
  let prog, cp =
    D.compile_source ~scalar_inputs:[ ("q", Value.Real 3.0) ] src
  in
  let inputs = [ ("B", D.wave_of_floats [ 1.; 2.; 3.; 4. ]); ("q", [ Value.Real 3.0 ]) ] in
  let result = D.run_cfg Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  Alcotest.(check (list (float 1e-12))) "scaled" [ 3.; 6.; 9.; 12. ]
    (List.map Value.to_real (D.output_wave cp result "A"))

let test_mismatch_detected () =
  (* run with one input, compare the oracle against another: the checker
     must notice *)
  let prog, cp = D.compile_source source in
  let result = D.run_cfg Run_config.default cp ~inputs:[ ("B", wave ()) ] in
  let other = [ ("B", D.wave_of_floats (List.init 8 (fun i -> float_of_int (i + 1)))) ] in
  match D.check_against_oracle prog cp result ~inputs:other with
  | () -> Alcotest.fail "expected Mismatch"
  | exception D.Mismatch _ -> ()

let test_expose_last () =
  let src =
    {|
param n = 7;
input B : array[real] [0, n];
A : array[real] := forall i in [0, n] construct 2. * B[i] endall;
C : array[real] := forall i in [0, n] construct A[i] + 1. endall;
|}
  in
  let options = { PC.default_options with PC.expose = `Last } in
  let prog, cp = D.compile_source ~options src in
  Alcotest.(check int) "only the final block exposed" 1
    (List.length cp.PC.cp_outputs);
  let inputs = [ ("B", wave ()) ] in
  let result = D.run_cfg Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs

let test_unused_input_tolerated () =
  (* a declared input no block consumes is still fed and discarded *)
  let src =
    {|
param n = 7;
input B : array[real] [0, n];
input Z : array[real] [0, n];
A : array[real] := forall i in [0, n] construct B[i] endall;
|}
  in
  let prog, cp = D.compile_source src in
  let inputs = [ ("B", wave ()); ("Z", wave ()) ] in
  let result = D.run_cfg ~waves:2 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs

let suite =
  [
    Alcotest.test_case "missing input rejected" `Quick
      test_missing_input_rejected;
    Alcotest.test_case "wrong wave size rejected" `Quick
      test_wrong_wave_size_rejected;
    Alcotest.test_case "scalar inputs required and plumbed" `Quick
      test_missing_scalar_input_rejected;
    Alcotest.test_case "oracle mismatch detected" `Quick
      test_mismatch_detected;
    Alcotest.test_case "expose only the last block" `Quick test_expose_last;
    Alcotest.test_case "unused input tolerated" `Quick
      test_unused_input_tolerated;
  ]
