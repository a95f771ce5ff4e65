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
  let forall_body body prev var =
    List.nth
      [
        Printf.sprintf "0.5 * (%s[%s-1] + %s[%s+1])" prev var prev var;
        Printf.sprintf "%s[%s] - 0.25 * %s[%s-1]" prev var prev var;
        Printf.sprintf
          "if %s[%s] < 0. then -(%s[%s]) else %s[%s] * 0.5 endif" prev var
          prev var prev var;
        Printf.sprintf "min(%s[%s+1], 1.) + 0.125" prev var;
      ]
      body
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
            | `Forall body ->
              Buffer.add_string buf
                (Printf.sprintf
                   "%s : array[real] := forall i in [%d, %d] construct %s endall;\n"
                   name (lo + 1) (hi - 1)
                   (forall_body body prev "i"));
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
       (oneof
          [ map (fun body -> `Forall body) (int_bound 3); return `Foriter ]))

let arbitrary_pipe_program =
  QCheck.make gen_pipe_program ~print:(fun s -> s)

(* A program is a function of the generator's random state alone, so a
   failure replays from its seed. *)
let prop_pipe_programs_replay =
  QCheck.Test.make ~count:20 ~name:"random pipe programs replay from their seed"
    QCheck.int (fun seed ->
      let draw () =
        QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:8
          gen_pipe_program
      in
      draw () = draw ())

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

(* every (priority, payload) pair of [q], in pop order; empties [q] *)
let drain_ipq q =
  let rec go acc =
    let p = Df_util.Ipq.peek_priority q in
    if p < 0 then List.rev acc else go ((p, Df_util.Ipq.pop_payload q) :: acc)
  in
  go []

(* Payloads are push indices: the drain is a stable sort of the pushes
   by priority, so equal priorities come out in push order. *)
let prop_pqueue_sorts =
  QCheck.Test.make ~count:200 ~name:"pqueue drains in priority order"
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let q = Df_util.Ipq.create () in
      List.iteri (fun i x -> Df_util.Ipq.push q x i) xs;
      drain_ipq q
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i x -> (x, i)) xs))

(* ---- the machine engine's timing wheel ---- *)

module W = Machine.Machine_engine.Wheel

(* A wheel's horizon, a power of two up to the largest, and queue
   operations: [Some d] pushes the next payload due [d] after the
   current time, [None] pops.  Small delays are the latencies that make
   ties; the longest lie past the wheel's horizon, where a recovery
   timeout far beyond it puts its retransmission timers, and come in
   ties of their own. *)
let gen_wheel_ops h =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [ (2, return None);
           (3, map Option.some (int_bound 3));
           (1, map Option.some (int_bound (2 * h)));
           (1, map (fun d -> Some ((3 * h) + d)) (int_bound 2)) ]))

let gen_horizon =
  QCheck.Gen.(map (fun k -> 1 lsl k) (int_bound 10))

let print_ops = QCheck.Print.(list (option int))
let shrink_ops = QCheck.Shrink.(list ~shrink:(option int))

let arb_wheel_ops =
  QCheck.make
    ~print:QCheck.Print.(pair int print_ops)
    ~shrink:QCheck.Shrink.(pair nil shrink_ops)
    QCheck.Gen.(gen_horizon >>= fun h -> pair (return h) (gen_wheel_ops h))

let arb_wheel_ops2 =
  QCheck.make
    ~print:QCheck.Print.(triple int print_ops print_ops)
    ~shrink:QCheck.Shrink.(triple nil shrink_ops shrink_ops)
    QCheck.Gen.(
      gen_horizon >>= fun h -> triple (return h) (gen_wheel_ops h)
        (gen_wheel_ops h))

(* The next event as the engine takes it: its time becomes current. *)
let wheel_pop w =
  let t = W.next_time w in
  if t < 0 then None
  else begin
    W.start w t;
    Some (t, W.take w)
  end

(* Plays [ops] from time [now], numbering payloads from [next]; returns
   what each pop gave and the time reached. *)
let play_wheel w ~now ~next ops =
  let now = ref now and next = ref next in
  let pops =
    List.map
      (function
        | Some d ->
          W.push w (!now + d) !next;
          incr next;
          None
        | None ->
          let got = wheel_pop w in
          Option.iter (fun (t, _) -> now := t) got;
          got)
      ops
  in
  (pops, !now)

let rec drain_wheel w =
  match wheel_pop w with None -> [] | Some e -> e :: drain_wheel w

(* Every pop gives the earliest of the pushed events not yet popped,
   the one pushed first among equals: the head of a stable sort of
   what is queued by time. *)
let prop_wheel_order =
  QCheck.Test.make ~count:300 ~name:"wheel pops in (time, queue order)"
    arb_wheel_ops (fun (h, ops) ->
      let w = W.create h in
      let by_time = List.stable_sort (fun (a, _) (b, _) -> compare a b) in
      let now = ref 0 and queued = ref [] and next = ref 0 in
      List.for_all
        (function
          | Some d ->
            W.push w (!now + d) !next;
            queued := !queued @ [ (!now + d, !next) ];
            incr next;
            W.length w = List.length !queued
          | None -> (
            match (wheel_pop w, by_time !queued) with
            | None, [] -> true
            | Some got, expected :: _ ->
              now := fst got;
              queued := List.filter (fun e -> e <> got) !queued;
              got = expected
            | _ -> false))
        ops
      && drain_wheel w = by_time !queued)

(* A snapshot lists the queue ([to_array]) and a restore pushes the list
   back in order at the snapshot's time: from any point, the reloaded
   queue lists the same, and then pops whatever follows as the
   original does. *)
let prop_wheel_reload =
  QCheck.Test.make ~count:300
    ~name:"wheel listed and reloaded pops the rest as the original"
    arb_wheel_ops2
    (fun (h, before, after) ->
      let w = W.create h in
      let _, now = play_wheel w ~now:0 ~next:0 before in
      let copy = W.create h in
      W.clear copy ~base:now;
      Array.iter (fun (t, x) -> W.push copy t x) (W.to_array w);
      let next = List.length before in
      W.to_array copy = W.to_array w
      && play_wheel copy ~now ~next after = play_wheel w ~now ~next after
      && drain_wheel copy = drain_wheel w)

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

(* Each Bool_source's bit table in the arena reads as [Ctlseq.nth],
   past the end of a finite sequence included. *)
let prop_arena_control_vs_nth =
  QCheck.Test.make ~count:200 ~name:"arena control table agrees with ctlseq nth"
    QCheck.(pair (list (pair bool (int_bound 5))) bool)
    (fun (runs, cyclic) ->
      let total = List.fold_left (fun a (_, c) -> a + c) 0 runs in
      QCheck.assume (total > 0);
      let seq = Ctlseq.make ~cyclic runs in
      (* a table of 3 bits before it, so its own starts mid-byte *)
      let g = Graph.create () in
      let source seq =
        let src = Graph.add g (Opcode.Bool_source seq) [||] in
        let sink = Graph.add g Opcode.Sink [| Graph.In_arc |] in
        Graph.connect g ~src ~dst:sink ~port:0;
        src
      in
      ignore (source (Ctlseq.make ~cyclic:true [ (true, 1); (false, 2) ]));
      let src = source seq in
      let a = Arena.build g in
      List.for_all
        (fun k ->
          Arena.control a src k
          = match Ctlseq.nth seq k with
            | Some b -> Bool.to_int b
            | None -> -1)
        (List.init ((2 * total) + 3) Fun.id))

(* The engines' value rules on slots ([Operand]) are [Opcode.apply_*]:
   on every pair of operand kinds, with the integers and reals where
   rules differ (0, negatives, [max_int], NaN, signed zeros and
   infinities), each gives the same value, reals compared by their
   bits, or raises the same [Value.Type_clash]. *)
let prop_slot_rules =
  let open QCheck.Gen in
  let operand =
    frequency
      [ (3,
         oneofl
           Value.
             [ Int 0; Int 1; Int (-1); Int (-7); Int 3; Int max_int;
               Int min_int; Real Float.nan; Real 0.; Real (-0.);
               Real Float.infinity; Real Float.neg_infinity; Real 1.5;
               Real (-2.25); Bool true; Bool false ]);
        (1, map (fun i -> Value.Int i) int);
        (1, map (fun f -> Value.Real f) float) ]
  in
  let rule =
    oneofl
      (List.map (fun o -> `Arith o) Opcode.[ Add; Sub; Mul; Div; Min; Max; Mod ]
      @ List.map (fun c -> `Compare c) Opcode.[ Lt; Le; Gt; Ge; Eq; Ne ]
      @ List.map (fun l -> `Logic l) Opcode.[ And; Or ]
      @ List.map (fun m -> `Math m) Opcode.[ Sqrt; Abs; Exp; Ln; Sin; Cos ])
  in
  let name = function
    | `Arith o -> Opcode.arith_name o
    | `Compare c -> Opcode.cmp_name c
    | `Logic l -> Opcode.logic_name l
    | `Math m -> Opcode.math_name m
  in
  let show v =
    Printf.sprintf "%s%s" (Value.to_string v)
      (match v with Value.Real f -> Printf.sprintf " (%h)" f | _ -> "")
  in
  QCheck.Test.make ~count:2000 ~name:"slot value rules equal Opcode.apply_*"
    (QCheck.make
       ~print:(fun (r, a, b) ->
         Printf.sprintf "%s %s %s" (name r) (show a) (show b))
       (triple rule operand operand))
    (fun (rule, a, b) ->
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Value.Type_clash msg -> Error msg
      in
      let reference () =
        match rule with
        | `Arith o -> Opcode.apply_arith o a b
        | `Compare c -> Opcode.apply_cmp c a b
        | `Logic l -> Opcode.apply_logic l a b
        | `Math m -> Opcode.apply_math m a
      in
      let slots () =
        let s = Operand.create 2 and r = Operand.create 1 in
        Operand.set s 0 a;
        Operand.set s 1 b;
        (match rule with
        | `Arith o -> Operand.arith o s 0 1 r
        | `Compare c -> Operand.compare c s 0 1 r
        | `Logic l -> Operand.logic l s 0 1 r
        | `Math m -> Operand.math m s 0 r);
        Operand.get r 0
      in
      match (outcome reference, outcome slots) with
      | Ok (Value.Real x), Ok (Value.Real y) ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | Ok x, Ok y -> x = y
      | Error m, Error m' -> m = m'
      | Ok v, Error m | Error m, Ok v ->
        QCheck.Test.fail_reportf "one gives %s, the other raises %S" (show v) m)

let prop_companion_associative =
  QCheck.Test.make ~count:300 ~name:"companion function associativity"
    QCheck.(triple (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.))
              (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.))
              (pair (float_bound_exclusive 2.) (float_bound_exclusive 2.)))
    (fun (a, b, c) ->
      let x1, y1 = R.companion_apply (R.companion_apply a b) c in
      let x2, y2 = R.companion_apply a (R.companion_apply b c) in
      Float.abs (x1 -. x2) <= 1e-9 && Float.abs (y1 -. y2) <= 1e-9)

(* Raw min-cost-flow networks from 0 to n-1 in two families: DAGs (arcs
   oriented low -> high node) with costs -5..5, and any digraph, self
   loops included, with costs 0..5.  Neither has a negative cycle.
   Endpoints are drawn modulo n, capacities include 0, and parallel arcs
   are common at small n; the arc list shrinks like any list. *)
type family = Dag | General

let arb_network =
  QCheck.(
    triple
      (oneofl
         ~print:(function Dag -> "dag" | General -> "general")
         [ Dag; General ])
      (int_range 2 40)
      (list_of_size Gen.(0 -- 120)
         (quad small_nat small_nat (int_range 0 9) (int_range (-5) 5))))

let network_arcs (family, n, raw) =
  List.filter_map
    (fun (a, b, capacity, cost) ->
      let u = a mod n and v = b mod n in
      match family with
      | Dag -> if u = v then None else Some (min u v, max u v, capacity, cost)
      | General -> Some (u, v, capacity, abs cost))
    raw

(* After a solve the flow must certify itself: bounded and conserved,
   its cost as reported, no augmenting path left (maximum), and the
   residual network free of negative cycles (minimum cost). *)
let prop_mcf_certificate =
  QCheck.Test.make ~count:200 ~long_factor:50
    ~name:"min-cost flow certifies its own optimality" arb_network
    (fun ((_, n, _) as network) ->
      let module M = Mincost_flow in
      let net = M.create n and source = 0 and sink = n - 1 in
      let arcs =
        List.map
          (fun (u, v, capacity, cost) ->
            (M.add_arc net ~src:u ~dst:v ~capacity ~cost, u, v, capacity, cost))
          (network_arcs network)
      in
      let s = M.min_cost_max_flow net ~source ~sink in
      let excess = Array.make n 0 and cost = ref 0 in
      List.iter
        (fun (id, u, v, capacity, c) ->
          let f = M.flow_on net id in
          if f < 0 || f > capacity then
            QCheck.Test.fail_reportf "arc %d carries %d of %d" id f capacity;
          excess.(u) <- excess.(u) - f;
          excess.(v) <- excess.(v) + f;
          cost := !cost + (f * c))
        arcs;
      Array.iteri
        (fun v e ->
          if v <> source && v <> sink && e <> 0 then
            QCheck.Test.fail_reportf "node %d has excess %d" v e)
        excess;
      if excess.(sink) <> s.M.flow then
        QCheck.Test.fail_reportf "flow %d reported, %d arrives" s.M.flow
          excess.(sink);
      if !cost <> s.M.cost then
        QCheck.Test.fail_reportf "cost %d reported, arcs sum to %d" s.M.cost
          !cost;
      (match M.residual_shortest_distances net ~root:source with
      | Some d when d.(sink) = max_int -> ()
      | Some _ -> QCheck.Test.fail_report "an augmenting path remains"
      | None -> QCheck.Test.fail_report "negative residual cycle");
      M.potentials net <> None)

let prop_balancer_duality =
  QCheck.Test.make ~count:20 ~long_factor:25
    ~name:"optimal balancing = dual bound"
    QCheck.(triple (int_range 1 10_000) (int_range 2 20) (int_range 2 10))
    (fun (seed, layers, width) ->
      let g = Test_balance.random_dag ~seed ~layers ~width in
      let optimal =
        Balance.Balancer.buffer_cost g (Balance.Balancer.optimal_levels g)
      in
      let naive =
        Balance.Balancer.buffer_cost g (Balance.Balancer.naive_levels g)
      in
      optimal = Test_balance.ssp_bound g
      && optimal = Balance.Balancer.dual_lower_bound g
      && optimal <= naive)

(* Balancing LPs given straight as arc sets [(src, dst, weight)] on
   nodes 0..n-1: weights -3..5, so equal slacks tie often; parallel arcs
   common at small n; sparse enough that several components and isolated
   nodes are the norm.  [acyclic] orients every arc low -> high and drops
   self-loops; otherwise arcs keep their drawn direction. *)
let arb_arc_lp =
  QCheck.(
    pair (int_range 1 40)
      (list_of_size Gen.(0 -- 120)
         (triple small_nat small_nat (int_range (-3) 5))))

let lp_arcs ~acyclic (n, raw) =
  List.filter_map
    (fun (a, b, w) ->
      let u = a mod n and v = b mod n in
      if not acyclic then Some (u, v, w)
      else if u = v then None
      else Some (min u v, max u v, w))
    raw

let show_levels levels =
  String.concat " " (Array.to_list (Array.map string_of_int levels))

let prop_optimal_levels_reference =
  QCheck.Test.make ~count:300 ~long_factor:50
    ~name:"optimal levels on arc sets = shortest-path reference" arb_arc_lp
    (fun ((n, _) as lp) ->
      let arcs = lp_arcs ~acyclic:true lp in
      let levels = Balance.Balancer.optimal_levels_arcs n arcs in
      let expected, bound = Test_balance.ssp_reference n arcs in
      if levels <> expected then
        QCheck.Test.fail_reportf "levels %s, reference %s" (show_levels levels)
          (show_levels expected);
      List.iter
        (fun (u, v, w) ->
          if levels.(v) - levels.(u) < w then
            QCheck.Test.fail_reportf "arc %d -> %d (weight %d) infeasible" u v w)
        arcs;
      (* buffer cost = dual lower bound *)
      let buffers =
        List.fold_left (fun acc (u, v, w) -> acc + levels.(v) - levels.(u) - w) 0 arcs
      in
      buffers = bound)

(* Cycle detection by colouring, independent of the balancer's. *)
let has_cycle n arcs =
  let succ = Array.make n [] and colour = Array.make n 0 in
  List.iter (fun (u, v, _) -> succ.(u) <- v :: succ.(u)) arcs;
  let rec visit u =
    colour.(u) <- 1;
    let back =
      List.exists (fun v -> colour.(v) = 1 || (colour.(v) = 0 && visit v)) succ.(u)
    in
    colour.(u) <- 2;
    back
  in
  List.exists (fun u -> colour.(u) = 0 && visit u) (List.init n Fun.id)

let prop_cyclic_arc_sets =
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"optimal levels raise Cyclic exactly on cyclic arc sets" arb_arc_lp
    (fun ((n, _) as lp) ->
      let arcs = lp_arcs ~acyclic:false lp in
      match Balance.Balancer.optimal_levels_arcs n arcs with
      | levels ->
        (not (has_cycle n arcs))
        && List.for_all (fun (u, v, w) -> levels.(v) - levels.(u) >= w) arcs
      | exception Balance.Balancer.Cyclic -> has_cycle n arcs)

(* ------------------------------------------------------------------ *)
(* Compile passes on random lowered graphs                              *)
(* ------------------------------------------------------------------ *)

(* A random lowered graph: 1-3 inputs, 4-40 cells (ADD, MULT, NEG and
   two-slot SWITCH), 1-3 outputs.  A cell reads earlier cells, often one
   producer on both ports (double arcs), sometimes a later cell or itself
   through a preloaded port (rings); a quarter of the cells copy an
   earlier cell's opcode and operands, so CSE has work.  Outputs read the
   last third of the cells; cells on no path to one are dead.  A cell with a preloaded port has gate shift
   -1, so merged cells share their shift and some rings are rigid. *)
let random_lowered seed =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let inputs = 1 + int 3 and cells = 4 + int 37 in
  let total = inputs + cells in
  let ops =
    Array.init total (fun id ->
        if id < inputs then Opcode.Input (Printf.sprintf "in%d" id)
        else
          [| Opcode.Arith Opcode.Add; Opcode.Arith Opcode.Mul; Opcode.Neg;
             Opcode.Switch |].(int 4))
  in
  let srcs = Array.make total [||] in
  for id = inputs to total - 1 do
    if id > inputs && int 4 = 0 then begin
      let twin = inputs + int (id - inputs) in
      ops.(id) <- ops.(twin);
      srcs.(id) <- srcs.(twin)
    end
    else
      srcs.(id) <-
        Array.init (Opcode.arity ops.(id)) (fun port ->
            if port = 1 && int 3 = 0 then `Same
            else if int 8 = 0 then `Arc (id + int (total - id), 0)
            else if port = 1 && int 6 = 0 then `Const
            else
              let s = int id in
              `Arc (s, int (Opcode.out_slots ops.(s))))
  done;
  let g = Graph.create () and shifts = Hashtbl.create 8 in
  Array.iteri
    (fun id op ->
      let rec binding = function
        | `Const -> Graph.In_const (Value.Real 0.5)
        | `Same -> binding srcs.(id).(0)
        | `Arc (s, _) when s >= id ->
          Hashtbl.replace shifts id (-1);
          Graph.In_arc_init (Value.Int 1)
        | `Arc _ -> Graph.In_arc
      in
      ignore (Graph.add g ~label:(Printf.sprintf "c%d" id) op
                (Array.map binding srcs.(id))))
    ops;
  Array.iteri
    (fun id ports ->
      Array.iteri
        (fun port src ->
          match (src, ports.(0)) with
          | `Arc (s, slot), _ | `Same, `Arc (s, slot) ->
            Graph.connect_slot g ~src:s ~slot ~dst:id ~port
          | _ -> ())
        ports)
    srcs;
  for k = 0 to int 3 do
    let s = total - 1 - int ((cells / 3) + 1) in
    let out =
      Graph.add g ~label:(Printf.sprintf "out%d" k)
        (Opcode.Output (Printf.sprintf "out%d" k)) [| Graph.In_arc |]
    in
    Graph.connect_slot g ~src:s ~slot:(int (Opcode.out_slots ops.(s))) ~dst:out
      ~port:0
  done;
  (g, shifts)

(* The labels of the cells an Output is reachable from, and the Inputs. *)
let expected_live g =
  let n = Graph.node_count g in
  let live =
    Array.init n (fun id ->
        match (Graph.node g id).Graph.op with
        | Opcode.Input _ | Opcode.Output _ -> true
        | _ -> false)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Graph.iter_nodes g (fun nd ->
        if (not live.(nd.Graph.id))
           && Array.exists (List.exists (fun e -> live.(e.Graph.ep_node)))
                nd.Graph.dests
        then begin
          live.(nd.Graph.id) <- true;
          changed := true
        end)
  done;
  List.filter_map
    (fun id -> if live.(id) then Some (Graph.node g id).Graph.label else None)
    (List.init n Fun.id)

let prop_compile_passes =
  QCheck.Test.make ~count:500 ~long_factor:20
    ~name:"compile passes on random graphs with rings" QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module PC = Compiler.Program_compile in
      let compile options =
        let g, shifts = random_lowered seed in
        match PC.compile_graph ~options g ~shifts with
        | g, _ -> g
        | exception Invalid_argument m ->
          QCheck.Test.fail_reportf "seed %d: %s" seed m
      in
      let d = { PC.default_options with PC.balance = `None } in
      (* pruning keeps exactly the live cells, in order, plus sinks *)
      let pruned = compile { d with PC.cse = false } in
      let kept =
        Graph.fold_nodes pruned ~init:[] ~f:(fun acc nd ->
            if nd.Graph.op = Opcode.Sink then acc else nd.Graph.label :: acc)
      in
      if List.rev kept <> expected_live (fst (random_lowered seed)) then
        QCheck.Test.fail_reportf "seed %d: kept cells differ from live ones" seed;
      (* CSE leaves no two cells outside rings, not fed by a ring cell,
         with the same opcode, operands and producers *)
      let merged = compile d in
      let ring = Array.make (Graph.node_count merged) (-1) in
      List.iteri (fun k -> List.iter (fun c -> ring.(c) <- k))
        (Analysis.cycles merged);
      let prods = Graph.producers merged and seen = Hashtbl.create 64 in
      Graph.iter_nodes merged (fun nd ->
          let id = nd.Graph.id in
          let ring_fed =
            Array.exists (Array.exists (fun (s, _) -> ring.(s) >= 0)) prods.(id)
          in
          match nd.Graph.op with
          | Opcode.Input _ | Opcode.Output _ | Opcode.Sink -> ()
          | _ when ring.(id) >= 0 || ring_fed -> ()
          | op ->
            let key = (op, nd.Graph.inputs, prods.(id)) in
            (match Hashtbl.find_opt seen key with
            | Some other ->
              QCheck.Test.fail_reportf "seed %d: %s#%d duplicates #%d" seed
                nd.Graph.label id other
            | None -> Hashtbl.add seen key id));
      (* each strategy's levels pass the balancer's feasibility check (it
         raises otherwise), the graph validates, and no FIFO lands on an
         arc inside a ring *)
      List.iter
        (fun balance ->
          let b = compile { PC.default_options with PC.balance } in
          let prods = Graph.producers b in
          Graph.iter_nodes b (fun nd ->
              match nd.Graph.op with
              | Opcode.Fifo _ when nd.Graph.id >= Graph.node_count merged -> (
                let u = fst prods.(nd.Graph.id).(0).(0) in
                match nd.Graph.dests with
                | [| [ { Graph.ep_node = v; _ } ] |]
                  when ring.(u) >= 0 && ring.(u) = ring.(v) ->
                  QCheck.Test.fail_reportf "seed %d: FIFO inside ring %d" seed
                    ring.(u)
                | _ -> ())
              | _ -> ()))
        [ `Naive; `Reduced; `Optimal ];
      true)

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
      prop_wheel_order;
      prop_wheel_reload;
      prop_ctlseq_nth_vs_list;
      prop_arena_control_vs_nth;
      prop_slot_rules;
      prop_companion_associative;
      prop_mcf_certificate;
      prop_balancer_duality;
      prop_optimal_levels_reference;
      prop_cyclic_arc_sets;
      prop_compile_passes;
      prop_pipe_programs_replay;
    ]
