(* recur: explore the recurrence analysis behind the companion scheme.

   Give it the appended-element expression of a for-iter loop (accumulator
   T, counter i) and it reports whether the recurrence is affine, its
   coefficients, and the compiled cell counts under both schemes.

   Examples:
     recur 'A[i] * T[i-1] + B[i]'
     recur 'max(T[i-1], B[i])'
     recur --acc X 'X[i-1] / 2. + A[i]'
*)

module R = Compiler.Recurrence
module D = Compiler.Driver
module PC = Compiler.Program_compile
module FC = Compiler.Foriter_compile

let wrap_program ~acc expr_src =
  Printf.sprintf
    {|
param m = 40;
input A : array[real] [0, m];
input B : array[real] [0, m];
X : array[real] :=
  for
    i : integer := 1;
    %s : array[real] := [0: 0]
  do
    let P : real := %s
    in
      if i < m then iter %s := %s[i: P]; i := i + 1 enditer else %s endif
    endlet
  endfor;
|}
    acc expr_src acc acc acc

let analyze acc expr_src measure =
  try
    let expr = Val_lang.Parser.parse_expr expr_src in
    Printf.printf "x[i] = %s\n" (Val_lang.Pretty.expr_to_string expr);
    (match R.analyze ~acc ~elt:Val_lang.Ast.Treal expr with
    | R.Affine { coef; shift } ->
      Printf.printf "affine recurrence:  x[i] = P*x[i-1] + Q\n";
      Printf.printf "  P = %s\n" (Val_lang.Pretty.expr_to_string coef);
      Printf.printf "  Q = %s\n" (Val_lang.Pretty.expr_to_string shift);
      print_endline
        "companion function: G((p1,q1),(p2,q2)) = (p1*p2, p1*q2 + q1)";
      print_endline "=> simple for-iter (Theorem 3): maximal rate 1/2"
    | R.Not_affine why ->
      Printf.printf "no companion function found: %s\n" why;
      print_endline "=> compiled with Todd's direct scheme (rate < 1/2)");
    if measure then begin
      let src = wrap_program ~acc expr_src in
      let st = Random.State.make [| 3 |] in
      let wave () =
        D.wave_of_floats (List.init 41 (fun _ -> Random.State.float st 0.6))
      in
      let inputs = [ ("A", wave ()); ("B", wave ()) ] in
      print_endline "measured initiation intervals (m = 40, 8 waves):";
      List.iter
        (fun (label, scheme) ->
          match
            let options = { PC.default_options with PC.scheme } in
            let prog, compiled = D.compile_source ~options src in
            let result =
              D.run_cfg ~waves:8 Run_config.default compiled ~inputs
            in
            D.check_against_oracle prog compiled result ~inputs;
            (Sim.Metrics.output_interval result "X",
             Dfg.Graph.node_count compiled.PC.cp_graph)
          with
          | interval, cells ->
            Printf.printf "  %-10s %d cells, interval %.3f\n" label cells
              interval
          | exception Compiler.Expr_compile.Unsupported msg ->
            Printf.printf "  %-10s unavailable (%s)\n" label msg)
        [ ("todd", FC.Todd); ("companion", FC.Companion) ]
    end;
    `Ok ()
  with
  | Val_lang.Parser.Parse_error (msg, line, col) ->
    `Error (false, Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | Val_lang.Classify.Not_in_class msg -> `Error (false, msg)

let cmd =
  let open Cmdliner in
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR"
           ~doc:"the appended-element expression, e.g. 'A[i]*T[i-1]+B[i]'")
  in
  let acc =
    Arg.(value & opt string "T"
         & info [ "acc" ] ~docv:"NAME" ~doc:"accumulator array name")
  in
  let measure =
    Arg.(value & flag
         & info [ "measure" ]
             ~doc:"compile under both schemes and measure throughput \
                   (requires the expression to reference input arrays A/B)")
  in
  Cmd.v
    (Cmd.info "recur" ~version:"1.0"
       ~doc:"analyze first-order recurrences for companion functions")
    Term.(ret (const analyze $ acc $ expr $ measure))

let () = exit (Cmdliner.Cmd.eval cmd)
