(* End-to-end compiler tests: every theorem of the paper, checked against
   the Val interpreter (values) and the simulator (rates). *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile
module FC = Compiler.Foriter_compile
module R = Compiler.Recurrence

let reals = D.wave_of_floats

let bools xs = List.map (fun b -> Value.Bool b) xs

let rng seed = Random.State.make [| seed |]

let random_floats st n = List.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let check_floats msg expected got =
  Alcotest.(check (list (float 1e-6)))
    msg
    (List.map Value.to_real expected)
    (List.map Value.to_real got)

let compile_run ?options ?(waves = 4) source inputs =
  let prog, cp = D.compile_source ?options source in
  let result = D.run_cfg ~waves Run_config.default cp ~inputs in
  Alcotest.(check bool) "simulation quiescent" true result.Sim.Engine.quiescent;
  (* free-running control/index sources legitimately hold tokens after the
     inputs exhaust, so [stuck] is not asserted empty here; completeness of
     the outputs is enforced by the oracle comparison *)
  D.check_against_oracle prog cp result ~inputs;
  (prog, cp, result)

(* ------------------------------------------------------------------ *)
(* Theorem 1 via simple foralls                                         *)
(* ------------------------------------------------------------------ *)

let test_simple_map () =
  let src =
    {|
param n = 15;
input B : array[real] [0, n];
A : array[real] := forall i in [0, n] construct 2.*B[i] + 1. endall;
|}
  in
  let st = rng 1 in
  let b = random_floats st 16 in
  let _, cp, result = compile_run src [ ("B", reals b) ] in
  let out = D.output_wave cp result "A" in
  check_floats "values" (reals (List.map (fun x -> (2. *. x) +. 1.) b)) out

let test_let_shadowing_compiles () =
  let src =
    {|
param n = 7;
input B : array[real] [0, n];
A : array[real] :=
  forall i in [0, n]
    y : real := B[i] * B[i];
  construct
    let y : real := y + 1. in y * 2. endlet
  endall;
|}
  in
  let st = rng 2 in
  let b = random_floats st 8 in
  let _, cp, result = compile_run src [ ("B", reals b) ] in
  let expected = List.map (fun x -> ((x *. x) +. 1.) *. 2.) b in
  check_floats "values" (reals expected) (D.output_wave cp result "A")

let test_index_variable_use () =
  (* i used arithmetically, not just in conditions *)
  let src =
    {|
param n = 9;
input B : array[real] [0, n];
A : array[real] := forall i in [0, n] construct B[i] * (i + 1) endall;
|}
  in
  let st = rng 3 in
  let b = random_floats st 10 in
  let _, cp, result = compile_run src [ ("B", reals b) ] in
  let expected = List.mapi (fun i x -> x *. float_of_int (i + 1)) b in
  check_floats "values" (reals expected) (D.output_wave cp result "A")

(* Figure 4: array selection with skew *)
let fig4_source m =
  Printf.sprintf
    {|
param m = %d;
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [1, m]
  construct
    0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall;
|}
    m

let test_fig4_selection () =
  let m = 20 in
  let st = rng 4 in
  let c = random_floats st (m + 2) in
  let _, cp, result = compile_run (fig4_source m) [ ("C", reals c) ] in
  let nth = List.nth c in
  let expected =
    List.init m (fun k ->
        let i = k + 1 in
        0.25 *. (nth (i - 1) +. (2. *. nth i) +. nth (i + 1)))
  in
  check_floats "values" (reals expected) (D.output_wave cp result "A")

let test_fig4_rate () =
  let m = 64 in
  let c = List.init (m + 2) float_of_int in
  let _, _, result = compile_run ~waves:12 (fig4_source m) [ ("C", reals c) ] in
  (* the pipe is input-paced: m+2 packets in, m out per wave *)
  let expected = 2.0 *. float_of_int (m + 2) /. float_of_int m in
  let interval = Sim.Metrics.output_interval result "A" in
  Alcotest.(check (float 0.1)) "input-limited interval" expected interval

(* Figure 5: conditional with switched operands *)
let fig5_source n =
  Printf.sprintf
    {|
param n = %d;
input C : array[boolean] [0, n];
input A : array[real] [0, n];
input B : array[real] [0, n];
R : array[real] :=
  forall i in [0, n]
  construct
    if C[i] then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif
  endall;
|}
    n

let test_fig5_conditional () =
  let n = 31 in
  let st = rng 5 in
  let a = random_floats st (n + 1) and b = random_floats st (n + 1) in
  let c = List.init (n + 1) (fun _ -> Random.State.bool st) in
  let inputs = [ ("C", bools c); ("A", reals a); ("B", reals b) ] in
  let _, cp, result = compile_run (fig5_source n) inputs in
  let expected =
    List.mapi
      (fun i ci ->
        let ai = List.nth a i and bi = List.nth b i in
        if ci then -.(ai +. bi) else 5. *. ((ai *. bi) +. 2.))
      c
  in
  check_floats "values" (reals expected) (D.output_wave cp result "R")

let test_fig5_rate () =
  let n = 63 in
  let st = rng 6 in
  let a = random_floats st (n + 1) and b = random_floats st (n + 1) in
  let c = List.init (n + 1) (fun i -> i mod 3 = 0) in
  let inputs = [ ("C", bools c); ("A", reals a); ("B", reals b) ] in
  let _, _, result = compile_run ~waves:10 (fig5_source n) inputs in
  let interval = Sim.Metrics.output_interval result "R" in
  Alcotest.(check (float 0.1)) "fully pipelined" 2.0 interval

let test_nested_conditional () =
  let src =
    {|
param n = 23;
input A : array[real] [0, n];
R : array[real] :=
  forall i in [0, n]
  construct
    if A[i] < 0. then
      if A[i] < -0.5 then 0. - 1. else A[i] * 2. endif
    else
      if A[i] > 0.5 then 1. else A[i] endif
    endif
  endall;
|}
  in
  let st = rng 7 in
  let a = random_floats st 24 in
  let _, cp, result = compile_run src [ ("A", reals a) ] in
  let expected =
    List.map
      (fun x ->
        if x < 0. then if x < -0.5 then -1. else x *. 2.
        else if x > 0.5 then 1.
        else x)
      a
  in
  check_floats "values" (reals expected) (D.output_wave cp result "R")

(* ------------------------------------------------------------------ *)
(* Theorem 2: Example 1 (Figure 6)                                      *)
(* ------------------------------------------------------------------ *)

let example1_source m =
  Printf.sprintf
    {|
param m = %d;
input C : array[real] [0, m+1];
input B : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0) | (i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct
    B[i] * (P * P)
  endall;
|}
    m

let example1_oracle ~m b c =
  List.init (m + 2) (fun i ->
      let p =
        if i = 0 || i = m + 1 then List.nth c i
        else
          0.25
          *. (List.nth c (i - 1) +. (2. *. List.nth c i) +. List.nth c (i + 1))
      in
      List.nth b i *. (p *. p))

let test_example1_values () =
  let m = 17 in
  let st = rng 8 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let _, cp, result = compile_run (example1_source m) inputs in
  check_floats "values"
    (reals (example1_oracle ~m b c))
    (D.output_wave cp result "A")

let test_example1_rate () =
  let m = 62 in
  let st = rng 9 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let _, _, result =
    compile_run ~waves:10 (example1_source m) inputs
  in
  (* full range produced and consumed: maximal rate 1/2 *)
  Alcotest.(check (float 0.1)) "fully pipelined" 2.0
    (Sim.Metrics.output_interval result "A")

(* ------------------------------------------------------------------ *)
(* Theorem 3: Example 2 (Figures 7 and 8)                               *)
(* ------------------------------------------------------------------ *)

let example2_source m =
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

let example2_oracle ~m a b =
  let x = Array.make m 0. in
  for i = 1 to m - 1 do
    x.(i) <- (List.nth a i *. x.(i - 1)) +. List.nth b i
  done;
  Array.to_list x

let options_with scheme =
  { PC.default_options with PC.scheme }

let test_example2_todd () =
  let m = 12 in
  let st = rng 10 in
  let a = random_floats st (m + 1) and b = random_floats st (m + 1) in
  let inputs = [ ("A", reals a); ("B", reals b) ] in
  let _, cp, result =
    compile_run ~options:(options_with FC.Todd) (example2_source m) inputs
  in
  check_floats "values"
    (reals (example2_oracle ~m a b))
    (D.output_wave cp result "X")

let test_example2_companion () =
  let m = 12 in
  let st = rng 11 in
  let a = random_floats st (m + 1) and b = random_floats st (m + 1) in
  let inputs = [ ("A", reals a); ("B", reals b) ] in
  let prog, cp = D.compile_source (example2_source m) in
  Alcotest.(check (option string))
    "auto picks the companion scheme" (Some "for-iter/companion")
    (List.assoc_opt "X" cp.PC.cp_schemes);
  let result = D.run_cfg ~waves:4 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  check_floats "values"
    (reals (example2_oracle ~m a b))
    (D.output_wave cp result "X")

(* Rate comparison on an input-matched loop so the output can reach the
   maximal rate: Todd is limited to ~1/3, the companion scheme restores
   ~1/2 (the paper's Figure 7 vs Figure 8). *)
let loop_rate scheme =
  let m = 96 in
  let src = example2_source m in
  let st = rng 12 in
  let a = List.init (m + 1) (fun _ -> Random.State.float st 0.5) in
  let b = random_floats st (m + 1) in
  let inputs = [ ("A", reals a); ("B", reals b) ] in
  let _, _, result =
    compile_run ~options:(options_with scheme) ~waves:10 src inputs
  in
  Sim.Metrics.output_interval result "X"

let test_todd_vs_companion_rate () =
  let todd = loop_rate FC.Todd in
  let companion = loop_rate FC.Companion in
  Alcotest.(check bool)
    (Printf.sprintf "todd interval %.2f ~ 3" todd)
    true
    (todd > 2.6 && todd < 3.4);
  Alcotest.(check bool)
    (Printf.sprintf "companion interval %.2f ~ 2" companion)
    true
    (companion > 1.9 && companion < 2.4)

(* non-affine recurrence: no companion function; Auto falls back to Todd *)
(* a data-dependent conditional around the accumulator: no companion
   function (If over acc), so Todd's scheme with dynamic switches inside
   the feedback loop *)
let test_conditional_recurrence () =
  let m = 11 in
  let src =
    Printf.sprintf
      {|
param m = %d;
input B : array[real] [0, m];
X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let P : real :=
      if B[i] > 0. then T[i-1] + B[i] else T[i-1] * 0.5 endif
    in
      if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
      m
  in
  let st = rng 77 in
  let b = random_floats st (m + 1) in
  let inputs = [ ("B", reals b) ] in
  let prog, cp = D.compile_source src in
  Alcotest.(check (option string))
    "falls back to Todd" (Some "for-iter/todd")
    (List.assoc_opt "X" cp.PC.cp_schemes);
  let result = D.run_cfg ~waves:3 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  let x = Array.make m 0. in
  for i = 1 to m - 1 do
    let bi = List.nth b i in
    x.(i) <- (if bi > 0. then x.(i - 1) +. bi else x.(i - 1) *. 0.5)
  done;
  check_floats "values" (reals (Array.to_list x)) (D.output_wave cp result "X")

let test_nonaffine_fallback () =
  let m = 10 in
  let src =
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
    let P : real := max(T[i-1] + A[i], B[i])
    in
      if i < m then
        iter T := T[i: P]; i := i + 1 enditer
      else T
      endif
    endlet
  endfor;
|}
      m
  in
  let st = rng 13 in
  let a = random_floats st (m + 1) and b = random_floats st (m + 1) in
  let inputs = [ ("A", reals a); ("B", reals b) ] in
  let prog, cp = D.compile_source src in
  Alcotest.(check (option string))
    "falls back to Todd" (Some "for-iter/todd")
    (List.assoc_opt "X" cp.PC.cp_schemes);
  let result = D.run_cfg ~waves:3 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  let x = Array.make m 0. in
  for i = 1 to m - 1 do
    x.(i) <- Float.max (x.(i - 1) +. List.nth a i) (List.nth b i)
  done;
  check_floats "values"
    (reals (Array.to_list x))
    (D.output_wave cp result "X")

(* ------------------------------------------------------------------ *)
(* Theorem 4: the Figure 3 pipe-structured program                      *)
(* ------------------------------------------------------------------ *)

let fig3_source m =
  Printf.sprintf
    {|
param m = %d;
input C : array[real] [0, m+1];
input B : array[real] [0, m+1];

A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0) | (i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct
    B[i] * (P * P)
  endall;

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

let test_fig3_program () =
  let m = 14 in
  let st = rng 14 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let _, cp, result = compile_run (fig3_source m) inputs in
  (* the oracle check inside compile_run already validated both A and X *)
  let a = example1_oracle ~m b c in
  let x = Array.make m 0. in
  for i = 1 to m - 1 do
    x.(i) <- (List.nth a i *. x.(i - 1)) +. List.nth b i
  done;
  check_floats "X" (reals (Array.to_list x)) (D.output_wave cp result "X")

let test_fig3_rate () =
  let m = 48 in
  let st = rng 15 in
  let b = random_floats st (m + 2)
  and c = List.init (m + 2) (fun _ -> Random.State.float st 0.5) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let _, _, result = compile_run ~waves:10 (fig3_source m) inputs in
  (* inputs are m+2 per wave, X is m per wave: the end-to-end interval is
     input-limited at 2(m+2)/m *)
  let expected = 2.0 *. float_of_int (m + 2) /. float_of_int m in
  Alcotest.(check (float 0.15)) "end-to-end interval" expected
    (Sim.Metrics.output_interval result "X")

(* ------------------------------------------------------------------ *)
(* 2-D forall (the paper's multi-dimension remark)                      *)
(* ------------------------------------------------------------------ *)

let test_forall_2d () =
  let n = 7 in
  let src =
    Printf.sprintf
      {|
param n = %d;
input G : array[real] [0, n] [0, n];
H : array[real] :=
  forall i in [1, n-1], j in [1, n-1]
  construct
    0.25 * (G[i-1, j] + G[i+1, j] + G[i, j-1] + G[i, j+1])
  endall;
|}
      n
  in
  let st = rng 16 in
  let g = List.init ((n + 1) * (n + 1)) (fun _ -> Random.State.float st 1.0) in
  let inputs = [ ("G", reals g) ] in
  let _, cp, result = compile_run src inputs in
  let at i j = List.nth g ((i * (n + 1)) + j) in
  let expected =
    List.concat
      (List.init (n - 1) (fun r ->
           List.init (n - 1) (fun c ->
               let i = r + 1 and j = c + 1 in
               0.25 *. (at (i - 1) j +. at (i + 1) j +. at i (j - 1) +. at i (j + 1)))))
  in
  check_floats "grid values" (reals expected) (D.output_wave cp result "H")

(* ------------------------------------------------------------------ *)
(* Balancing strategies and macro expansion end-to-end                  *)
(* ------------------------------------------------------------------ *)

let test_balancing_strategies () =
  let m = 10 in
  let st = rng 17 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  List.iter
    (fun balance ->
      let options = { PC.default_options with PC.balance } in
      let _, cp, result = compile_run ~options (fig3_source m) inputs in
      ignore cp;
      ignore result)
    [ `Naive; `Reduced; `Optimal ]

let test_unbalanced_still_correct () =
  (* without balancing, values stay correct (elasticity of ports); only
     throughput suffers *)
  let m = 8 in
  let st = rng 18 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let options = { PC.default_options with PC.balance = `None } in
  let prog, cp = D.compile_source ~options (example1_source m) in
  let result = D.run_cfg ~waves:2 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs

let test_macro_expanded_program () =
  let m = 12 in
  let st = rng 19 in
  let b = random_floats st (m + 2) and c = random_floats st (m + 2) in
  let inputs = [ ("C", reals c); ("B", reals b) ] in
  let options = { PC.default_options with PC.expand_macros = true } in
  let prog, cp = D.compile_source ~options (fig3_source m) in
  (* pure machine code: no abstract sources remain *)
  Graph.iter_nodes cp.PC.cp_graph (fun n ->
      match n.Graph.op with
      | Opcode.Bool_source _ | Opcode.Iota _ | Opcode.Fifo _ ->
        Alcotest.failf "abstract node %s survived expansion" n.Graph.label
      | _ -> ());
  let result = D.run_cfg ~waves:3 Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs

(* ------------------------------------------------------------------ *)
(* Recurrence analysis                                                  *)
(* ------------------------------------------------------------------ *)

let parse_expr = Val_lang.Parser.parse_expr

let test_recurrence_analysis () =
  let affine src =
    match R.analyze ~acc:"T" ~elt:Val_lang.Ast.Treal (parse_expr src) with
    | R.Affine { coef; shift } ->
      (Val_lang.Pretty.expr_to_string coef, Val_lang.Pretty.expr_to_string shift)
    | R.Not_affine why -> Alcotest.failf "unexpectedly not affine: %s" why
  in
  let not_affine src =
    match R.analyze ~acc:"T" ~elt:Val_lang.Ast.Treal (parse_expr src) with
    | R.Affine _ -> Alcotest.failf "unexpectedly affine: %s" src
    | R.Not_affine _ -> ()
  in
  Alcotest.(check (pair string string))
    "paper example" ("A[i]", "B[i]")
    (affine "A[i] * T[i-1] + B[i]");
  Alcotest.(check (pair string string))
    "plain copy" ("1.", "0.")
    (affine "T[i-1]");
  Alcotest.(check (pair string string))
    "sum" ("1.", "B[i]")
    (affine "T[i-1] + B[i]");
  Alcotest.(check (pair string string))
    "let-inlined" ("A[i]", "B[i]")
    (affine "let P : real := A[i] in P * T[i-1] + B[i] endlet");
  Alcotest.(check (pair string string))
    "negated" ("(-A[i])", "B[i]")
    (affine "B[i] - A[i] * T[i-1]");
  not_affine "T[i-1] * T[i-1]";
  not_affine "max(T[i-1], B[i])";
  not_affine "if T[i-1] < 0. then 1. else 2. endif";
  not_affine "B[i] / T[i-1]"

let test_companion_function () =
  (* associativity of G on sampled values *)
  let st = rng 20 in
  for _ = 1 to 100 do
    let pair () = (Random.State.float st 2. -. 1., Random.State.float st 2. -. 1.) in
    let a = pair () and b = pair () and c = pair () in
    let g = R.companion_apply in
    let x1, y1 = g (g a b) c and x2, y2 = g a (g b c) in
    Alcotest.(check (float 1e-9)) "assoc fst" x1 x2;
    Alcotest.(check (float 1e-9)) "assoc snd" y1 y2
  done;
  (* and the defining property F(a, F(b, x)) = F(G(a,b), x) *)
  for _ = 1 to 100 do
    let f (p, q) x = (p *. x) +. q in
    let a = (Random.State.float st 1., Random.State.float st 1.) in
    let b = (Random.State.float st 1., Random.State.float st 1.) in
    let x = Random.State.float st 10. in
    Alcotest.(check (float 1e-9))
      "companion property"
      (f a (f b x))
      (f (R.companion_apply a b) x)
  done

let suite =
  [
    Alcotest.test_case "simple map forall" `Quick test_simple_map;
    Alcotest.test_case "let shadowing" `Quick test_let_shadowing_compiles;
    Alcotest.test_case "index variable arithmetic" `Quick
      test_index_variable_use;
    Alcotest.test_case "figure 4: selection values" `Quick
      test_fig4_selection;
    Alcotest.test_case "figure 4: rate" `Quick test_fig4_rate;
    Alcotest.test_case "figure 5: conditional values" `Quick
      test_fig5_conditional;
    Alcotest.test_case "figure 5: rate" `Quick test_fig5_rate;
    Alcotest.test_case "nested conditionals" `Quick test_nested_conditional;
    Alcotest.test_case "example 1 values (thm 2)" `Quick
      test_example1_values;
    Alcotest.test_case "example 1 rate" `Quick test_example1_rate;
    Alcotest.test_case "example 2 via Todd" `Quick test_example2_todd;
    Alcotest.test_case "example 2 via companion (thm 3)" `Quick
      test_example2_companion;
    Alcotest.test_case "todd 1/3 vs companion 1/2" `Quick
      test_todd_vs_companion_rate;
    Alcotest.test_case "non-affine falls back to Todd" `Quick
      test_nonaffine_fallback;
    Alcotest.test_case "conditional recurrence (dynamic arms in loop)"
      `Quick test_conditional_recurrence;
    Alcotest.test_case "figure 3 program (thm 4)" `Quick test_fig3_program;
    Alcotest.test_case "figure 3 rate" `Quick test_fig3_rate;
    Alcotest.test_case "2-D forall" `Quick test_forall_2d;
    Alcotest.test_case "balancing strategies" `Quick
      test_balancing_strategies;
    Alcotest.test_case "unbalanced still correct" `Quick
      test_unbalanced_still_correct;
    Alcotest.test_case "macro-expanded program" `Quick
      test_macro_expanded_program;
    Alcotest.test_case "recurrence analysis" `Quick test_recurrence_analysis;
    Alcotest.test_case "companion function properties" `Quick
      test_companion_function;
  ]
