(* Math intrinsics (sqrt/abs/exp/ln/sin/cos) through the full stack:
   parse, interpret, compile, simulate, serialize. *)

open Dfg
module A = Val_lang.Ast
module D = Compiler.Driver

let test_parse () =
  (match Val_lang.Parser.parse_expr "sqrt(abs(x))" with
  | A.Unop (A.Fn A.Sqrt, A.Unop (A.Fn A.Abs, A.Var "x")) -> ()
  | _ -> Alcotest.fail "sqrt(abs(x))");
  match Val_lang.Parser.parse_expr "exp(ln(sin(cos(1.))))" with
  | A.Unop (A.Fn A.Exp, A.Unop (A.Fn A.Ln, A.Unop (A.Fn A.Sin, A.Unop (A.Fn A.Cos, A.Real_lit 1.))))
    -> ()
  | _ -> Alcotest.fail "nested intrinsics"

let test_eval () =
  let eval src bindings =
    Val_lang.Eval.to_real
      (Val_lang.Eval.eval_expr
         (Val_lang.Eval.env_of_bindings bindings)
         (Val_lang.Parser.parse_expr src))
  in
  Alcotest.(check (float 1e-12)) "sqrt" 3.0 (eval "sqrt(9.)" []);
  Alcotest.(check (float 1e-12)) "abs" 2.5 (eval "abs(0. - 2.5)" []);
  Alcotest.(check (float 1e-12)) "exp(0)" 1.0 (eval "exp(0.)" []);
  Alcotest.(check (float 1e-12)) "ln(e)" 1.0 (eval "ln(exp(1.))" []);
  Alcotest.(check (float 1e-12)) "sin(0)" 0.0 (eval "sin(0.)" []);
  Alcotest.(check (float 1e-12)) "cos(0)" 1.0 (eval "cos(0.)" []);
  (* abs keeps integers integral *)
  match
    Val_lang.Eval.eval_expr
      (Val_lang.Eval.env_of_bindings [])
      (Val_lang.Parser.parse_expr "abs(0 - 3)")
  with
  | Val_lang.Eval.VInt 3 -> ()
  | _ -> Alcotest.fail "abs of int should stay int"

let test_pretty_roundtrip () =
  let e = Val_lang.Parser.parse_expr "sqrt(x * x + y * y)" in
  let e' = Val_lang.Parser.parse_expr (Val_lang.Pretty.expr_to_string e) in
  Alcotest.(check bool) "round trip" true (e = e')

let test_compiled_pipeline () =
  (* LFK22-style Planckian-ish kernel with exp and sqrt *)
  let n = 40 in
  let src =
    Printf.sprintf
      {|
param n = %d;
input U : array[real] [0, n];
input V : array[real] [0, n];
W : array[real] :=
  forall i in [0, n]
  construct
    sqrt(abs(U[i])) / (exp(V[i]) + 1.)
  endall;
|}
      n
  in
  let st = Random.State.make [| 31 |] in
  let wave () =
    List.init (n + 1) (fun _ -> Random.State.float st 2.0 -. 1.0)
  in
  let u = wave () and v = wave () in
  let inputs = [ ("U", D.wave_of_floats u); ("V", D.wave_of_floats v) ] in
  let prog, cp = D.compile_source src in
  let result = D.run_cfg ~waves:6 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  let expected =
    List.map2 (fun a b -> sqrt (Float.abs a) /. (exp b +. 1.)) u v
  in
  Alcotest.(check (list (float 1e-12)))
    "values" expected
    (List.map Value.to_real (D.output_wave cp result "W"));
  Alcotest.(check (float 0.05)) "fully pipelined" 2.0
    (Sim.Metrics.output_interval result "W")

let test_constant_folding () =
  (* constant math folds at compile time: no Math cell should remain *)
  let src =
    {|
param n = 7;
input U : array[real] [0, n];
W : array[real] := forall i in [0, n] construct U[i] * sqrt(4.) endall;
|}
  in
  let _, cp = D.compile_source src in
  Graph.iter_nodes cp.Compiler.Program_compile.cp_graph (fun node ->
      match node.Graph.op with
      | Opcode.Math _ -> Alcotest.fail "sqrt(4.) should have folded"
      | _ -> ())

let test_serialize_math () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let s = Graph.add g (Opcode.Math Opcode.Sqrt) [| Graph.In_arc |] in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:s ~port:0;
  Graph.connect g ~src:s ~dst:out ~port:0;
  let g' = Text.of_string (Text.to_string g) in
  match (Graph.node g' 1).Graph.op with
  | Opcode.Math Opcode.Sqrt -> ()
  | _ -> Alcotest.fail "SQRT did not round trip"

let test_typecheck () =
  let expect_error src =
    match
      Val_lang.Typecheck.check_expr ~scalars:[ ("b", A.Tbool) ] ~arrays:[]
        (Val_lang.Parser.parse_expr src)
    with
    | _ -> Alcotest.failf "expected type error for %s" src
    | exception Val_lang.Typecheck.Error _ -> ()
  in
  expect_error "sqrt(b)";
  expect_error "ln(b)";
  Alcotest.(check bool) "sqrt of real is real" true
    (Val_lang.Typecheck.check_expr ~scalars:[ ("x", A.Treal) ] ~arrays:[]
       (Val_lang.Parser.parse_expr "sqrt(x)")
    = A.Treal);
  Alcotest.(check bool) "abs of int is int" true
    (Val_lang.Typecheck.check_expr ~scalars:[ ("k", A.Tint) ] ~arrays:[]
       (Val_lang.Parser.parse_expr "abs(k)")
    = A.Tint)

let suite =
  [
    Alcotest.test_case "parse intrinsics" `Quick test_parse;
    Alcotest.test_case "interpret intrinsics" `Quick test_eval;
    Alcotest.test_case "pretty round trip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "compiled kernel with sqrt/exp" `Quick
      test_compiled_pipeline;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "serialization" `Quick test_serialize_math;
    Alcotest.test_case "typing" `Quick test_typecheck;
  ]
