(* Property-based tests (qcheck): random primitive expressions compiled
   and simulated must agree with the Val interpreter; structure round
   trips; data-structure invariants. *)

open Dfg
module A = Val_lang.Ast
module D = Compiler.Driver
module R = Compiler.Recurrence

(* ------------------------------------------------------------------ *)
(* Random primitive expressions                                         *)
(* ------------------------------------------------------------------ *)

(* Real-valued primitive expressions over index variable [i], arrays
   A and B (selectable with offsets -1..1), and let-bound locals.
   Division is excluded to keep values finite and comparisons exact. *)
let gen_expr =
  let open QCheck.Gen in
  let lit = map (fun f -> A.Real_lit (Float.of_int f /. 4.0)) (int_range 0 8) in
  let select =
    map2
      (fun name off -> A.Select (name, [ A.Ix_var ("i", off) ]))
      (oneofl [ "A"; "B" ])
      (int_range (-1) 1)
  in
  let arith = oneofl [ A.Add; A.Sub; A.Mul; A.Min; A.Max ] in
  let cmp = oneofl [ A.Lt; A.Le; A.Gt; A.Ge ] in
  let rec real ~locals n =
    if n <= 0 then
      oneof
        (lit :: select
        :: (if locals = [] then []
            else [ map (fun v -> A.Var v) (oneofl locals) ]))
    else
      frequency
        [
          (2, lit);
          (4, select);
          (4, map3 (fun op a b -> A.Binop (op, a, b)) arith
                (real ~locals (n / 2))
                (real ~locals (n / 2)));
          (1, map (fun a -> A.Unop (A.Neg, a)) (real ~locals (n - 1)));
          ( 2,
            map3
              (fun c t e -> A.If (c, t, e))
              (boolean ~locals (n / 2))
              (real ~locals (n / 2))
              (real ~locals (n / 2)) );
          ( 1,
            let v = Printf.sprintf "v%d" n in
            map2
              (fun rhs body ->
                A.Let ([ { A.def_name = v; def_type = None; def_rhs = rhs } ], body))
              (real ~locals (n / 2))
              (real ~locals:(v :: locals) (n / 2)) );
          ( 1,
            (* index arithmetic promoted into the real expression *)
            map
              (fun a -> A.Binop (A.Mul, a, A.Binop (A.Add, A.Var "i", A.Int_lit 1)))
              (real ~locals (n / 2)) );
        ]
  and boolean ~locals n =
    let static_cond =
      map2
        (fun op k -> A.Binop (op, A.Var "i", A.Int_lit k))
        cmp (int_range 0 12)
    in
    if n <= 0 then static_cond
    else
      frequency
        [
          ( 4,
            map3 (fun op a b -> A.Binop (op, a, b)) cmp
              (real ~locals (n / 2))
              (real ~locals (n / 2)) );
          (2, static_cond);
          ( 1,
            map2 (fun a b -> A.Binop (A.And, a, b))
              (boolean ~locals (n / 2))
              (boolean ~locals (n / 2)) );
          ( 1,
            map2 (fun a b -> A.Binop (A.Or, a, b))
              (boolean ~locals (n / 2))
              (boolean ~locals (n / 2)) );
          (1, map (fun a -> A.Unop (A.Not, a)) (boolean ~locals (n - 1)));
        ]
  in
  QCheck.Gen.sized_size (QCheck.Gen.int_range 1 6) (fun n -> real ~locals:[] n)

let arbitrary_expr =
  QCheck.make gen_expr ~print:Val_lang.Pretty.expr_to_string

let forall_program body =
  let n = 12 in
  Printf.sprintf
    {|
param n = %d;
input A : array[real] [0, n+1];
input B : array[real] [0, n+1];
R : array[real] := forall i in [1, n] construct %s endall;
|}
    n
    (Val_lang.Pretty.expr_to_string body)

let prop_compiled_matches_interpreter =
  QCheck.Test.make ~count:40 ~name:"compiled forall = interpreter"
    arbitrary_expr (fun body ->
      let source = forall_program body in
      let st = Random.State.make [| Hashtbl.hash source |] in
      let wave () =
        D.wave_of_floats
          (List.init 14 (fun _ -> Random.State.float st 2.0 -. 1.0))
      in
      let inputs = [ ("A", wave ()); ("B", wave ()) ] in
      let prog, compiled = D.compile_source source in
      let result = D.run_cfg ~waves:2 Run_config.default compiled ~inputs in
      match D.check_against_oracle prog compiled result ~inputs with
      | () -> true
      | exception D.Mismatch msg -> QCheck.Test.fail_report msg)

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pretty/parse round trip"
    arbitrary_expr (fun e ->
      let printed = Val_lang.Pretty.expr_to_string e in
      match Val_lang.Parser.parse_expr printed with
      | e' ->
        if e = e' then true
        else
          QCheck.Test.fail_report
            (Printf.sprintf "reparse differs: %s" printed)
      | exception Val_lang.Parser.Parse_error (msg, _, _) ->
        QCheck.Test.fail_report (Printf.sprintf "%s: %s" msg printed))

(* ------------------------------------------------------------------ *)
(* Random affine recurrences: Todd = companion = interpreter            *)
(* ------------------------------------------------------------------ *)

let gen_coef =
  (* keep |P| <= ~0.9 so recurrences stay numerically tame *)
  QCheck.Gen.oneofl
    [ "0.5 * A[i]"; "A[i] - 0.1"; "0.25"; "min(A[i], 0.75)"; "-0.5 * A[i]" ]

let gen_shift =
  QCheck.Gen.oneofl
    [ "B[i]"; "B[i] + 0.5"; "2. * B[i] - A[i]"; "0.125"; "max(B[i], 0.)" ]

let arbitrary_recurrence =
  (* a recurrence with both coefficients constant has no input stream to
     pace the loop — legitimately rejected by the compiler, so the
     generator avoids the combination *)
  let gen =
    QCheck.Gen.map
      (fun (p, q) -> if p = "0.25" && q = "0.125" then (p, "B[i]") else (p, q))
      QCheck.Gen.(pair gen_coef gen_shift)
  in
  QCheck.make gen
    ~print:(fun (p, q) -> Printf.sprintf "x[i] = (%s)*x[i-1] + (%s)" p q)

let recurrence_program (p, q) =
  Printf.sprintf
    {|
param m = 17;
input A : array[real] [0, m];
input B : array[real] [0, m];
X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let P : real := (%s) * T[i-1] + (%s)
    in
      if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
    p q

let prop_schemes_agree =
  QCheck.Test.make ~count:15 ~name:"todd = companion = interpreter"
    arbitrary_recurrence (fun pq ->
      let source = recurrence_program pq in
      let st = Random.State.make [| Hashtbl.hash source |] in
      let wave () =
        D.wave_of_floats
          (List.init 18 (fun _ -> Random.State.float st 2.0 -. 1.0))
      in
      let inputs = [ ("A", wave ()); ("B", wave ()) ] in
      let run scheme =
        let options =
          { Compiler.Program_compile.default_options with
            Compiler.Program_compile.scheme }
        in
        let prog, compiled = D.compile_source ~options source in
        let result = D.run_cfg ~waves:2 Run_config.default compiled ~inputs in
        D.check_against_oracle prog compiled result ~inputs;
        List.map Value.to_real (D.output_wave compiled result "X")
      in
      match
        (run Compiler.Foriter_compile.Todd,
         run Compiler.Foriter_compile.Companion)
      with
      | todd, companion ->
        List.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) todd companion
      | exception D.Mismatch msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Random pipe-structured programs (Theorem 4)                          *)
(* ------------------------------------------------------------------ *)

(* 2-4 chained blocks, each either a forall over the previous block (with
   shrinking range so windows stay legal) or an affine for-iter consuming
   it.  The whole program is compiled, simulated for two waves, and
   compared with the interpreter. *)
let gen_pipe_program =
  let open QCheck.Gen in
  let forall_body prev var =
    oneofl
      [
        Printf.sprintf "0.5 * (%s[%s-1] + %s[%s+1])" prev var prev var;
        Printf.sprintf "%s[%s] - 0.25 * %s[%s-1]" prev var prev var;
        Printf.sprintf
          "if %s[%s] < 0. then -(%s[%s]) else %s[%s] * 0.5 endif" prev var
          prev var prev var;
        Printf.sprintf "min(%s[%s+1], 1.) + 0.125" prev var;
      ]
  in
  let block_count = int_range 2 4 in
  map2
    (fun count choices ->
      let buf = Buffer.create 256 in
      let n0 = 20 in
      Buffer.add_string buf
        (Printf.sprintf
           "param n = %d;
input A0 : array[real] [0, n];
" n0);
      (* each block consumes the interior of its producer's range and
         records the range it actually constructs *)
      let rec build k lo hi prev =
        if k > count || hi - lo < 6 then prev
        else begin
          let name = Printf.sprintf "A%d" k in
          let choice = List.nth choices ((k - 1) mod List.length choices) in
          let produced_lo, produced_hi =
            match choice with
            | `Forall body_of ->
              Buffer.add_string buf
                (Printf.sprintf
                   "%s : array[real] := forall i in [%d, %d] construct %s endall;\n"
                   name (lo + 1) (hi - 1)
                   (body_of prev "i"));
              (lo + 1, hi - 1)
            | `Foriter ->
              (* counter lo+1 .. hi-2; the definition part also reads
                 prev[hi-1] on the terminating cycle, still in range *)
              Buffer.add_string buf
                (Printf.sprintf
                   "%s : array[real] := for i : integer := %d; T : array[real] := [%d: 0] do let p : real := 0.5 * T[i-1] + %s[i] in if i < %d then iter T := T[i: p]; i := i + 1 enditer else T endif endlet endfor;\n"
                   name (lo + 1) lo prev (hi - 1));
              (lo, hi - 2)
          in
          build (k + 1) produced_lo produced_hi name
        end
      in
      let _last = build 1 0 n0 "A0" in
      Buffer.contents buf)
    block_count
    (list_size (int_range 2 4)
       (oneofl
          [ `Forall (fun prev var -> QCheck.Gen.generate1 (forall_body prev var));
            `Foriter ]))

let arbitrary_pipe_program =
  QCheck.make gen_pipe_program ~print:(fun s -> s)

let prop_random_pipe_programs =
  QCheck.Test.make ~count:25 ~name:"random pipe programs = interpreter"
    arbitrary_pipe_program (fun source ->
      let st = Random.State.make [| Hashtbl.hash source |] in
      let inputs =
        [ ("A0",
           D.wave_of_floats
             (List.init 21 (fun _ -> Random.State.float st 1.6 -. 0.8))) ]
      in
      match
        let prog, compiled = D.compile_source source in
        let result = D.run_cfg ~waves:2 Run_config.default compiled ~inputs in
        D.check_against_oracle prog compiled result ~inputs
      with
      | () -> true
      | exception D.Mismatch msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Serialization round trip on compiled graphs                          *)
(* ------------------------------------------------------------------ *)

let prop_serialize_roundtrip =
  QCheck.Test.make ~count:25 ~name:"compiled graph .dfg round trip"
    arbitrary_expr (fun body ->
      let source = forall_program body in
      let _, compiled = D.compile_source source in
      let g = compiled.Compiler.Program_compile.cp_graph in
      let g' = Dfg.Text.of_string (Dfg.Text.to_string g) in
      if Graph.node_count g <> Graph.node_count g' then
        QCheck.Test.fail_report "node count changed"
      else begin
        (* both graphs must simulate identically *)
        let st = Random.State.make [| Hashtbl.hash source |] in
        let wave () =
          D.wave_of_floats
            (List.init 14 (fun _ -> Random.State.float st 2.0 -. 1.0))
        in
        let inputs = [ ("A", wave ()); ("B", wave ()) ] in
        let r1 = Sim.Engine.run_cfg Run_config.default g ~inputs in
        let r2 = Sim.Engine.run_cfg Run_config.default g' ~inputs in
        let vals r = List.map Value.to_real (Sim.Engine.output_values r "R") in
        if vals r1 = vals r2 then true
        else QCheck.Test.fail_report "reloaded graph computes differently"
      end)

(* ------------------------------------------------------------------ *)
(* 2-D forall properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_2d_body =
  QCheck.Gen.oneofl
    [
      "0.25 * (G[i-1, j] + G[i+1, j] + G[i, j-1] + G[i, j+1])";
      "G[i, j] - 0.125 * G[i-1, j-1]";
      "max(G[i+1, j+1], G[i-1, j-1]) * 0.5";
      "if G[i, j] < 0. then -(G[i, j]) else G[i, j] + (i + j) * 0.01 endif";
      "if i < 4 then G[i, j] else G[i-1, j] * 0.5 endif";
    ]

let prop_2d_forall =
  QCheck.Test.make ~count:15 ~name:"2-D forall = interpreter"
    (QCheck.make gen_2d_body ~print:(fun s -> s))
    (fun body ->
      let n = 7 in
      let source =
        Printf.sprintf
          {|
param n = %d;
input G : array[real] [0, n] [0, n];
H : array[real] := forall i in [1, n-1], j in [1, n-1] construct %s endall;
|}
          n body
      in
      let st = Random.State.make [| Hashtbl.hash source |] in
      let inputs =
        [ ("G",
           D.wave_of_floats
             (List.init ((n + 1) * (n + 1)) (fun _ ->
                  Random.State.float st 2.0 -. 1.0))) ]
      in
      match
        let prog, compiled = D.compile_source source in
        let result = D.run_cfg ~waves:2 Run_config.default compiled ~inputs in
        D.check_against_oracle prog compiled result ~inputs
      with
      | () -> true
      | exception D.Mismatch msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Data-structure invariants                                            *)
(* ------------------------------------------------------------------ *)

let prop_dfg_parser_total =
  (* byte-level mutations of a valid .dfg either reparse (rarely) or fail
     with Parse_error — never any other exception *)
  QCheck.Test.make ~count:150 ~name:".dfg parser is total"
    QCheck.(pair small_nat (int_bound 255))
    (fun (pos, byte) ->
      let base =
        let _, cp = D.compile_source (forall_program (A.Real_lit 1.0)) in
        Dfg.Text.to_string cp.Compiler.Program_compile.cp_graph
      in
      let b = Bytes.of_string base in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match Dfg.Text.of_string (Bytes.to_string b) with
      | _ -> true
      | exception Dfg.Text.Parse_error _ -> true
      | exception other ->
        QCheck.Test.fail_report
          (Printf.sprintf "unexpected exception %s"
             (Printexc.to_string other)))

let prop_pqueue_sorts =
  QCheck.Test.make ~count:200 ~name:"pqueue drains in priority order"
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let q = Df_util.Pqueue.create () in
      List.iter (fun x -> Df_util.Pqueue.push q x x) xs;
      let rec drain acc =
        match Df_util.Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_ctlseq_nth_vs_list =
  QCheck.Test.make ~count:200 ~name:"ctlseq nth agrees with to_list"
    QCheck.(pair (list (pair bool (int_bound 5))) bool)
    (fun (runs, cyclic) ->
      let total = List.fold_left (fun a (_, c) -> a + c) 0 runs in
      QCheck.assume (total > 0);
      let seq = Ctlseq.make ~cyclic runs in
      let listed = Ctlseq.to_list seq ~periods:2 in
      List.for_all2
        (fun k v -> Ctlseq.nth seq k = Some v)
        (List.init (List.length listed) Fun.id)
        listed)

let prop_companion_associative =
  QCheck.Test.make ~count:300 ~name:"companion function associativity"
    QCheck.(triple (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.))
              (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.))
              (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.)))
    (fun (a, b, c) ->
      let x1, y1 = R.companion_apply (R.companion_apply a b) c in
      let x2, y2 = R.companion_apply a (R.companion_apply b c) in
      Float.abs (x1 -. x2) <= 1e-9 && Float.abs (y1 -. y2) <= 1e-9)

let prop_balancer_duality =
  QCheck.Test.make ~count:20 ~name:"optimal balancing = dual bound"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Test_balance.random_dag ~seed ~layers:4 ~width:4 in
      let optimal =
        Balance.Balancer.buffer_cost g (Balance.Balancer.optimal_levels g)
      in
      let naive =
        Balance.Balancer.buffer_cost g (Balance.Balancer.naive_levels g)
      in
      optimal = Balance.Balancer.dual_lower_bound g && optimal <= naive)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_matches_interpreter;
      prop_pretty_parse_roundtrip;
      prop_schemes_agree;
      prop_random_pipe_programs;
      prop_serialize_roundtrip;
      prop_2d_forall;
      prop_dfg_parser_total;
      prop_pqueue_sorts;
      prop_ctlseq_nth_vs_list;
      prop_companion_associative;
      prop_balancer_duality;
    ]
