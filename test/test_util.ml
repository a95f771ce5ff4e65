(* Utility-layer tests: priority queue, table rendering, and the
   simulation report. *)

open Dfg
open Sim

module Ipq = Df_util.Ipq

let pop q =
  let prio = Ipq.peek_priority q in
  if prio < 0 then None else Some (prio, Ipq.pop_payload q)

let test_pqueue_basics () =
  let q = Ipq.create () in
  Alcotest.(check int) "peek empty" (-1) (Ipq.peek_priority q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ipq.pop_payload: empty")
    (fun () -> ignore (Ipq.pop_payload q));
  Ipq.push q 5 50;
  Ipq.push q 1 10;
  Ipq.push q 3 30;
  Alcotest.(check int) "peek" 1 (Ipq.peek_priority q);
  Alcotest.(check (option (pair int int))) "pop order" (Some (1, 10)) (pop q);
  Alcotest.(check (option (pair int int))) "then the 3" (Some (3, 30)) (pop q);
  Alcotest.(check (option (pair int int))) "then the 5" (Some (5, 50)) (pop q);
  Alcotest.(check (option (pair int int))) "drained" None (pop q);
  Ipq.push q 2 20;
  Alcotest.(check (option (pair int int))) "usable after draining"
    (Some (2, 20)) (pop q)

let test_pqueue_duplicates () =
  let q = Ipq.create () in
  List.iter (fun x -> Ipq.push q 7 x) [ 1; 2; 3 ];
  Ipq.push q 2 0;
  Alcotest.(check (option (pair int int))) "lowest first" (Some (2, 0)) (pop q);
  (* the three 7s drain in the order they were pushed *)
  let drained = List.init 3 (fun _ -> pop q) in
  Alcotest.(check (list (option (pair int int)))) "equal priorities"
    [ Some (7, 1); Some (7, 2); Some (7, 3) ] drained

let test_pqueue_growth () =
  let q = Ipq.create ~capacity:1 () in
  for i = 1000 downto 1 do
    Ipq.push q i i
  done;
  let rec drain last n =
    match pop q with
    | None -> n
    | Some (p, x) ->
      Alcotest.(check bool) "nondecreasing" true (p >= last);
      Alcotest.(check int) "payload travels with its priority" p x;
      drain p (n + 1)
  in
  Alcotest.(check int) "all drained" 1000 (drain min_int 0)

let test_table_render () =
  let t = Df_util.Table.create [ "name"; "value" ] in
  Df_util.Table.add_row t [ "alpha"; "1" ];
  Df_util.Table.add_row t [ "b"; "123456" ];
  let s = Df_util.Table.render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all lines same width (padded) *)
  (match lines with
  | header :: _ ->
    Alcotest.(check bool) "columns aligned" true
      (String.length header = String.length (List.nth lines 2))
  | [] -> Alcotest.fail "empty render");
  (* ragged rows tolerated *)
  let t2 = Df_util.Table.create [ "a" ] in
  Df_util.Table.add_row t2 [ "x"; "extra" ];
  Df_util.Table.add_row t2 [];
  Alcotest.(check bool) "ragged render does not raise" true
    (String.length (Df_util.Table.render t2) > 0)

let test_report () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let id = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:id ~port:0;
  Graph.connect g ~src:id ~dst:out ~port:0;
  let result =
    Engine.run_cfg Run_config.(default |> with_record_firings true) g
      ~inputs:[ ("a", List.init 50 (fun i -> Value.Int i)) ]
  in
  let rows = Report.rows g result in
  Alcotest.(check int) "one row per cell" 3 (List.length rows);
  let id_row = List.nth rows 1 in
  Alcotest.(check int) "id fired per element" 50 id_row.Report.firings;
  Alcotest.(check (float 0.1)) "period 2" 2.0 id_row.Report.period;
  let rendered = Report.render g result in
  Alcotest.(check bool) "mentions output" true
    (String.length rendered > 0);
  Alcotest.(check bool) "concurrency positive" true
    (Report.concurrency result > 0.5)

let test_value_helpers () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.Int 42));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true));
  Alcotest.(check bool) "equal with eps" true
    (Value.equal ~eps:0.01 (Value.Real 1.0) (Value.Real 1.005));
  Alcotest.(check bool) "int/real comparable" true
    (Value.equal (Value.Int 2) (Value.Real 2.0));
  Alcotest.(check bool) "bool vs int differ" false
    (Value.equal (Value.Bool true) (Value.Int 1));
  (match Value.to_real (Value.Bool true) with
  | _ -> Alcotest.fail "expected Type_clash"
  | exception Value.Type_clash _ -> ());
  match Value.to_bool (Value.Real 1.0) with
  | _ -> Alcotest.fail "expected Type_clash"
  | exception Value.Type_clash _ -> ()

(* [Value.to_string] renders without Format; [Value.pp] is the Format
   printer it must match byte for byte. *)
let test_value_to_string_oracle () =
  let check v =
    Alcotest.(check string)
      "to_string = Format %a pp"
      (Format.asprintf "%a" Value.pp v)
      (Value.to_string v)
  in
  List.iter
    (fun f -> check (Value.Real f))
    [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0;
      4.9e-324; -4.9e-324; 2.2250738585072009e-308; min_float; max_float;
      1e-5; 123456.; 1234567.; 0.1; 1.0 /. 3.0; -2.5; 1e15; 1e22 ];
  let st = Random.State.make [| 20261019 |] in
  for _ = 1 to 20_000 do
    check (Value.Real (Int64.float_of_bits (Random.State.int64 st Int64.max_int)));
    check
      (Value.Real
         (-.Int64.float_of_bits (Random.State.int64 st Int64.max_int)));
    check (Value.Int (Random.State.bits st - (1 lsl 29)))
  done;
  List.iter (fun i -> check (Value.Int i)) [ 0; -1; min_int; max_int ];
  List.iter (fun b -> check (Value.Bool b)) [ true; false ]

let test_timeline () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let id = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:id ~port:0;
  Graph.connect g ~src:id ~dst:out ~port:0;
  let result =
    Engine.run_cfg Run_config.(default |> with_record_firings true) g
      ~inputs:[ ("a", List.init 10 (fun i -> Value.Int i)) ]
  in
  let chart = Timeline.render ~width:24 g result in
  let lines = String.split_on_char '\n' chart in
  Alcotest.(check int) "header + 3 cells" 4
    (List.length (List.filter (fun l -> l <> "") lines));
  (* the Id fires every other step in steady state: stars alternate *)
  let id_line = List.nth lines 2 in
  Alcotest.(check bool) "contains firings" true
    (String.contains id_line '*')

let test_metrics_edge_cases () =
  Alcotest.(check bool) "empty times -> nan" true
    (Float.is_nan (Metrics.initiation_interval []));
  Alcotest.(check bool) "single arrival -> nan" true
    (Float.is_nan (Metrics.initiation_interval [ 5 ]));
  Alcotest.(check (float 1e-9)) "two arrivals, no trim" 3.0
    (Metrics.initiation_interval ~trim:0.0 [ 2; 5 ])

let suite =
  [
    Alcotest.test_case "pqueue basics" `Quick test_pqueue_basics;
    Alcotest.test_case "pqueue duplicates" `Quick test_pqueue_duplicates;
    Alcotest.test_case "pqueue growth and ordering" `Quick test_pqueue_growth;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "simulation report" `Quick test_report;
    Alcotest.test_case "value helpers" `Quick test_value_helpers;
    Alcotest.test_case "timeline rendering" `Quick test_timeline;
    Alcotest.test_case "metrics edge cases" `Quick test_metrics_edge_cases;
    Alcotest.test_case "value to_string matches its Format printer" `Quick
      test_value_to_string_oracle;
  ]
