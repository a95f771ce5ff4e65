(* The generator's two promises: a seed names byte-identical sources,
   and every program it writes is in the pipe-structured class (the
   classifier accepts it) with every for-iter block on the companion
   scheme.  A few generated programs are also compiled and run for one
   wave against the Val interpreter.

   Last, the known defect that keeps index-conditional arms out of the
   generator stays pinned: this reduced program is in the class, yet its
   compiled graph deadlocks after about half a wave.  When the compiler
   learns to run it, this check fails — re-enable such arms in Gen then
   (README.md, "Known defect"). *)

module G = Perfbench.Gen
module PC = Compiler.Program_compile

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let index_conditional_deadlock =
  {|param n = 191;
input A0 : array[real] [0, n];
input A1 : array[real] [0, n];
input A2 : array[real] [0, n];
B1 : array[real] :=
  for i : integer := 2; T : array[real] := [1: 0]
  do
    let p : real := (-0.5) * T[i-1] + 0.25 * (A2[i+1] + A1[i-2])
    in if i < 190 then iter T := T[i: p]; i := i + 1 enditer else T endif
    endlet
  endfor;
B2 : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let p : real := (-0.5) * T[i-1] + 0.5 * A1[i-1] - 0.125
    in if i < 192 then iter T := T[i: p]; i := i + 1 enditer else T endif
    endlet
  endfor;
B3 : array[real] :=
  forall i in [1, 187]
    d : real := 0.5 * (B2[i] + A1[i]);
  construct max(d, B1[i+2]) - 0.0625
  endall;
B4 : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0]
  do
    let p : real := (0.75 * max(min(B2[i+1], 0.5), -0.5)) * T[i-1]
                    + 0.25 * (B3[i] + B1[i+2])
    in if i < 187 then iter T := T[i: p]; i := i + 1 enditer else T endif
    endlet
  endfor;
B7 : array[real] :=
  forall i in [1, 184]
  construct if i < 90 then 0.5 * B4[i+2] else A2[i+1] - 0.125 endif
  endall;
|}

let () =
  let a = G.suite ~seed:7 ~count:48 () and b = G.suite ~seed:7 ~count:48 () in
  if a <> b then fail "seed 7: two suites differ";
  if G.suite ~seed:8 ~count:48 () = a then fail "seeds 7 and 8 agree";
  List.iter
    (fun seed ->
      Array.iteri
        (fun index source ->
          match
            Val_lang.Classify.classify_program
              (Val_lang.Parser.parse_program source)
          with
          | _ -> ()
          | exception e ->
            fail "seed %d program %d rejected: %s\n%s" seed index
              (Printexc.to_string e) source)
        (G.suite ~seed ~count:240 ()))
    [ 1; 2; 3 ];
  Array.iteri
    (fun index source ->
      let prog, cp = Compiler.Driver.compile_source source in
      List.iter
        (fun (block, scheme) ->
          if scheme = "for-iter/todd" then
            fail "program %d block %s fell back to Todd's scheme" index block)
        cp.PC.cp_schemes;
      let inputs =
        List.map
          (fun (name, xs) -> (name, Compiler.Driver.wave_of_floats xs))
          (G.input_waves ~seed:11 ~index)
      in
      let result =
        Compiler.Driver.run_cfg Run_config.default cp ~inputs
      in
      try Compiler.Driver.check_against_oracle prog cp result ~inputs
      with Compiler.Driver.Mismatch m -> fail "program %d: %s" index m)
    (G.suite ~lo:4 ~hi:24 ~seed:11 ~count:6 ());
  let deadlocks =
    let inputs =
      List.map
        (fun (name, xs) -> (name, Compiler.Driver.wave_of_floats xs))
        (G.input_waves ~seed:11 ~index:3)
    in
    let prog, cp = Compiler.Driver.compile_source index_conditional_deadlock in
    let result = Compiler.Driver.run_cfg Run_config.default cp ~inputs in
    match Compiler.Driver.check_against_oracle prog cp result ~inputs with
    | () -> false
    | exception Compiler.Driver.Mismatch _ -> true
  in
  if not deadlocks then
    fail "the index-conditional case now runs: re-enable it in Gen";
  print_endline
    "generator: deterministic, in class, companion, = interpreter; \
     index-conditional deadlock still pinned"
