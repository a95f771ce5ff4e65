(* Benchmark harness: regenerates every figure and quantitative claim of
   Dennis & Gao (ICPP'83 / CSG Memo 233).  One experiment per paper
   artifact (see DESIGN.md's experiment index); each prints the paper's
   predicted value next to the measured one and a PASS/FAIL verdict on
   the qualitative shape.  Bechamel micro-benchmarks of the toolchain
   run at the end. *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile
module FC = Compiler.Foriter_compile
module ME = Machine.Machine_engine
module Arch = Machine.Arch
module Table = Df_util.Table

(* Experiments are independent jobs fanned over Exec.Pool, so nothing
   may write to stdout directly: each experiment renders into its own
   [ctx] and the main driver prints the buffers in submission order —
   which makes the merged report byte-identical at any worker count. *)
type ctx = {
  buf : Buffer.t;
  mutable ctx_failures : int;
  entries : Obs.Bench_json.entry Queue.t;
      (* recorded in execution order — no write-time reversal *)
}

let new_ctx () =
  { buf = Buffer.create 4096; ctx_failures = 0; entries = Queue.create () }

let pf ctx fmt = Printf.ksprintf (Buffer.add_string ctx.buf) fmt

let verdict ctx ~ok fmt =
  Printf.ksprintf
    (fun s ->
      if not ok then ctx.ctx_failures <- ctx.ctx_failures + 1;
      pf ctx "  [%s] %s\n" (if ok then "PASS" else "FAIL") s)
    fmt

(* Machine-readable results, one entry per experiment, written as
   BENCH_PIPELINE.json at the end of the run (path overridable via the
   BENCH_JSON environment variable). *)
let record ctx ?predicted ?measured ?units ?detail ~ok id title =
  Queue.add
    (Obs.Bench_json.entry ?predicted ?measured ?units ?detail ~ok id title)
    ctx.entries

let header ctx id title claim =
  pf ctx "\n=== %s: %s ===\n" id title;
  pf ctx "paper: %s\n" claim

let print_table ctx table = Buffer.add_string ctx.buf (Table.render table)

let interval_of ?(waves = 10) ?options source inputs output =
  let prog, cp = D.compile_source ?options source in
  let result = D.run_cfg ~waves Run_config.default cp ~inputs in
  D.check_against_oracle prog cp result ~inputs;
  (Sim.Metrics.output_interval result output, cp, result)

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2: a three-stage pipe runs fully pipelined, and the rate
   is independent of pipeline depth.                                    *)
(* ------------------------------------------------------------------ *)

let fig2_graph ~extra_depth =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let b = Graph.add g (Opcode.Input "b") [||] in
  let mult1 = Graph.add g ~label:"cell1" (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_arc |] in
  let add = Graph.add g ~label:"cell2" (Opcode.Arith Opcode.Add)
      [| Graph.In_arc; Graph.In_const (Value.Real 2.) |] in
  let sub = Graph.add g ~label:"cell3" (Opcode.Arith Opcode.Sub)
      [| Graph.In_arc; Graph.In_const (Value.Real 3.) |] in
  let mult2 = Graph.add g ~label:"cell4" (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:mult1 ~port:0;
  Graph.connect g ~src:b ~dst:mult1 ~port:1;
  Graph.connect g ~src:mult1 ~dst:add ~port:0;
  Graph.connect g ~src:mult1 ~dst:sub ~port:0;
  Graph.connect g ~src:add ~dst:mult2 ~port:0;
  Graph.connect g ~src:sub ~dst:mult2 ~port:1;
  let last = ref mult2 in
  for _ = 1 to extra_depth do
    let id = Graph.add g Opcode.Id [| Graph.In_arc |] in
    Graph.connect g ~src:!last ~dst:id ~port:0;
    last := id
  done;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:!last ~dst:out ~port:0;
  g

let e1 ctx =
  header ctx "E1" "Figure 2 pipeline"
    "a balanced pipe emits one result every ~2 instruction times, \
     independent of depth";
  let n = 600 in
  let xs = List.init n (fun i -> Value.Real (float_of_int i /. 100.)) in
  let table = Table.create [ "pipeline depth"; "interval"; "rate" ] in
  let ok = ref true in
  let worst = ref 0.0 in
  List.iter
    (fun extra ->
      let g = fig2_graph ~extra_depth:extra in
      let r = Sim.Engine.run_cfg Run_config.default g ~inputs:[ ("a", xs); ("b", xs) ] in
      let interval = Sim.Metrics.output_interval r "r" in
      if Float.abs (interval -. 2.0) > 0.05 then ok := false;
      if interval > !worst then worst := interval;
      Table.add_row table
        [ string_of_int (3 + extra); Printf.sprintf "%.3f" interval;
          Printf.sprintf "1/%.2f" interval ])
    [ 0; 5; 17; 37 ];
  print_table ctx table;
  verdict ctx ~ok:!ok "interval stays at 2.0 for depths 3..40";
  record ctx ~predicted:2.0 ~measured:!worst ~ok:!ok
    ~detail:"worst interval over pipeline depths 3..40" "E1"
    "Figure 2 pipeline: rate independent of depth"

(* ------------------------------------------------------------------ *)
(* E2 — Section 3: unbalanced graphs jam; balancing restores the rate.  *)
(* ------------------------------------------------------------------ *)

let diamond ~skew =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let split = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:split ~port:0;
  let short = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:split ~dst:short ~port:0;
  let long_end = ref split in
  for _ = 0 to skew do
    let id = Graph.add g Opcode.Id [| Graph.In_arc |] in
    Graph.connect g ~src:!long_end ~dst:id ~port:0;
    long_end := id
  done;
  let join = Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |] in
  Graph.connect g ~src:short ~dst:join ~port:0;
  Graph.connect g ~src:!long_end ~dst:join ~port:1;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:join ~dst:out ~port:0;
  g

let e2 ctx =
  header ctx "E2" "balancing claim"
    "computation rate = rate of the slowest stage; inserting FIFOs \
     (identity cells) rebalances to the maximum";
  let n = 400 in
  let xs = List.init n (fun i -> Value.Int i) in
  let table =
    Table.create [ "skew"; "unbalanced"; "balanced"; "buffers added" ]
  in
  let ok = ref true in
  let worst_bal = ref 0.0 in
  List.iter
    (fun skew ->
      let g = diamond ~skew in
      let raw = Sim.Engine.run_cfg Run_config.default g ~inputs:[ ("a", xs) ] in
      let raw_i = Sim.Metrics.output_interval raw "r" in
      let balanced = Balance.Balancer.balance ~strategy:`Optimal g in
      let bal = Sim.Engine.run_cfg Run_config.default balanced ~inputs:[ ("a", xs) ] in
      let bal_i = Sim.Metrics.output_interval bal "r" in
      let buffers = Graph.node_count balanced - Graph.node_count g in
      if bal_i > 2.05 then ok := false;
      if skew >= 2 && raw_i < 2.4 then ok := false;
      if bal_i > !worst_bal then worst_bal := bal_i;
      Table.add_row table
        [ string_of_int skew; Printf.sprintf "%.3f" raw_i;
          Printf.sprintf "%.3f" bal_i; string_of_int buffers ])
    [ 1; 2; 4; 8; 16 ];
  print_table ctx table;
  verdict ctx ~ok:!ok "unbalanced diamonds jam; optimal balancing restores 2.0";
  record ctx ~predicted:2.0 ~measured:!worst_bal ~ok:!ok
    ~detail:"worst balanced interval over skews 1..16" "E2"
    "balancing restores the maximal rate"

(* ------------------------------------------------------------------ *)
(* E3 — Figure 4: array selection with skew FIFOs.                      *)
(* ------------------------------------------------------------------ *)

let e3 ctx =
  header ctx "E3" "Figure 4 array selection"
    "gates discard boundary elements, FIFO(2)-style buffers absorb the \
     +/-1 window skew; the pipe is input-limited at 2(m+2)/m";
  let table = Table.create [ "m"; "predicted"; "measured"; "FIFO stages" ] in
  let ok = ref true in
  let last = ref (0.0, 0.0) in
  List.iter
    (fun m ->
      let st = Random.State.make [| m |] in
      let inputs =
        [ ("C", D.wave_of_floats (Sources.random_wave st (m + 2))) ]
      in
      let interval, cp, _ = interval_of (Sources.fig4_kernel m) inputs "A" in
      let predicted = 2.0 *. float_of_int (m + 2) /. float_of_int m in
      last := (predicted, interval);
      let fifo_stages =
        Graph.fold_nodes cp.PC.cp_graph ~init:0 ~f:(fun acc n ->
            match n.Graph.op with Opcode.Fifo k -> acc + k | _ -> acc)
      in
      if Float.abs (interval -. predicted) > 0.1 then ok := false;
      Table.add_row table
        [ string_of_int m; Printf.sprintf "%.3f" predicted;
          Printf.sprintf "%.3f" interval; string_of_int fifo_stages ])
    [ 16; 64; 256; 1024 ];
  print_table ctx table;
  verdict ctx ~ok:!ok "measured interval tracks the input-limited prediction";
  let predicted, measured = !last in
  record ctx ~predicted ~measured ~ok:!ok ~detail:"m=1024 window selection" "E3"
    "Figure 4 array selection at the input-limited rate"

(* ------------------------------------------------------------------ *)
(* E4 — Figure 5: if-then-else with switched operands.                  *)
(* ------------------------------------------------------------------ *)

let e4 ctx =
  header ctx "E4" "Figure 5 conditional"
    "both arms equal length after FIFO insertion, control reaches the \
     merge through a FIFO: fully pipelined (interval 2)";
  let n = 255 in
  let st = Random.State.make [| 5 |] in
  let inputs =
    [ ("C", List.init (n + 1) (fun _ -> Value.Bool (Random.State.bool st)));
      ("A", D.wave_of_floats (Sources.random_wave st (n + 1)));
      ("B", D.wave_of_floats (Sources.random_wave st (n + 1))) ]
  in
  let interval, _, _ = interval_of (Sources.fig5_conditional n) inputs "R" in
  let table = Table.create [ "n"; "predicted"; "measured" ] in
  Table.add_row table
    [ string_of_int n; "2.000"; Printf.sprintf "%.3f" interval ];
  print_table ctx table;
  let ok = Float.abs (interval -. 2.0) <= 0.05 in
  verdict ctx ~ok "conditional pipe fully pipelined (values oracle-checked)";
  record ctx ~predicted:2.0 ~measured:interval ~ok "E4"
    "Figure 5 conditional fully pipelined"

(* ------------------------------------------------------------------ *)
(* E5 — Figure 6 / Theorem 2: Example 1.                                *)
(* ------------------------------------------------------------------ *)

let e5 ctx =
  header ctx "E5" "Figure 6: primitive forall (Example 1)"
    "cascade of definition and accumulation graphs, boundary/interior \
     merge under control sequences: fully pipelined";
  let m = 254 in
  let st = Random.State.make [| 6 |] in
  let inputs =
    [ ("C", D.wave_of_floats (Sources.random_wave st (m + 2)));
      ("B", D.wave_of_floats (Sources.random_wave st (m + 2))) ]
  in
  let interval, cp, _ = interval_of (Sources.example1 m) inputs "A" in
  let census = Graph.opcode_census cp.PC.cp_graph in
  let table = Table.create [ "metric"; "value" ] in
  Table.add_row table [ "interval"; Printf.sprintf "%.3f" interval ];
  List.iter
    (fun (op, k) -> Table.add_row table [ op; string_of_int k ])
    census;
  print_table ctx table;
  let iok = Float.abs (interval -. 2.0) <= 0.05 in
  verdict ctx ~ok:iok "Example 1 fully pipelined at interval %.3f" interval;
  let gates = Option.value ~default:0 (List.assoc_opt "TGATE" census) in
  verdict ctx ~ok:(gates >= 3)
    "selection gates present as in Figure 6 (%d gates)" gates;
  record ctx ~predicted:2.0 ~measured:interval
    ~ok:(iok && gates >= 3)
    "E5" "Figure 6 primitive forall (Example 1)"

(* ------------------------------------------------------------------ *)
(* E6/E7 — Figures 7 and 8: Todd 1/3 vs companion 1/2.                  *)
(* ------------------------------------------------------------------ *)

let e6_e7 ctx =
  header ctx "E6+E7" "Figures 7 and 8: for-iter schemes"
    "Todd's 3-cell feedback loop caps the rate at 1/3; the companion \
     pipeline restores the maximum 1/2";
  let m = 255 in
  let st = Random.State.make [| 7 |] in
  let inputs =
    [ ("A", D.wave_of_floats (Sources.tame_wave st (m + 1)));
      ("B", D.wave_of_floats (Sources.random_wave st (m + 1))) ]
  in
  let table =
    Table.create [ "scheme"; "paper rate"; "measured interval"; "cells" ]
  in
  let measure scheme =
    let options = { PC.default_options with PC.scheme } in
    let interval, cp, _ =
      interval_of ~options (Sources.example2 m) inputs "X"
    in
    (interval, Graph.node_count cp.PC.cp_graph)
  in
  let todd, todd_cells = measure FC.Todd in
  let comp, comp_cells = measure FC.Companion in
  Table.add_row table
    [ "Todd (fig 7)"; "1/3"; Printf.sprintf "%.3f" todd;
      string_of_int todd_cells ];
  Table.add_row table
    [ "companion (fig 8)"; "1/2"; Printf.sprintf "%.3f" comp;
      string_of_int comp_cells ];
  print_table ctx table;
  verdict ctx ~ok:(todd > 2.8 && todd < 3.2) "Todd limited to ~1/3 (%.3f)" todd;
  verdict ctx ~ok:(comp < 2.1) "companion restores ~1/2 (%.3f)" comp;
  record ctx ~predicted:3.0 ~measured:todd
    ~ok:(todd > 2.8 && todd < 3.2)
    "E6" "Figure 7: Todd's scheme capped at 1/3";
  record ctx ~predicted:2.0 ~measured:comp ~ok:(comp < 2.1) "E7"
    "Figure 8: companion scheme restores 1/2"

(* ------------------------------------------------------------------ *)
(* E8 — companion vs Todd as the recurrence body deepens.               *)
(* ------------------------------------------------------------------ *)

let e8 ctx =
  header ctx "E8" "companion tree claim"
    "G is associative, so deeper recurrence bodies still run at 1/2 \
     under the companion scheme while the direct loop degrades";
  let m = 127 in
  let table =
    Table.create [ "body depth"; "todd (predicted)"; "todd"; "companion" ]
  in
  let ok = ref true in
  let worst_comp = ref 0.0 in
  List.iter
    (fun depth ->
      let src = Sources.deep_recurrence ~depth m in
      let st = Random.State.make [| depth |] in
      let inputs =
        [ ("A", D.wave_of_floats (Sources.tame_wave st (m + 1)));
          ("B", D.wave_of_floats (Sources.tame_wave st (m + 1))) ]
      in
      let measure scheme =
        let options = { PC.default_options with PC.scheme } in
        let interval, _, _ = interval_of ~options src inputs "X" in
        interval
      in
      let todd = measure FC.Todd in
      let comp = measure FC.Companion in
      if comp > !worst_comp then worst_comp := comp;
      (* Todd's loop threads x[i-1] through [depth] MUL+ADD pairs, the
         pacing ADD and the merge: a cycle of 2*depth+2 cells *)
      let todd_predicted = float_of_int ((2 * depth) + 2) in
      if comp > 2.15 then ok := false;
      if Float.abs (todd -. todd_predicted) > 0.5 then ok := false;
      Table.add_row table
        [ string_of_int depth; Printf.sprintf "%.0f" todd_predicted;
          Printf.sprintf "%.3f" todd; Printf.sprintf "%.3f" comp ])
    [ 1; 2; 4; 8 ];
  print_table ctx table;
  verdict ctx ~ok:!ok "companion stays at ~2.0 while Todd degrades as 2d+2";
  (* the log2 tree itself: larger feedback distances still at max rate *)
  let table2 =
    Table.create [ "companion distance"; "G levels"; "cells"; "interval" ]
  in
  let ok2 = ref true in
  List.iter
    (fun distance ->
      let options =
        { PC.default_options with
          PC.scheme = FC.Companion;
          companion_distance = distance;
        }
      in
      let st = Random.State.make [| distance |] in
      let inputs =
        [ ("A", D.wave_of_floats (Sources.tame_wave st (m + 1)));
          ("B", D.wave_of_floats (Sources.tame_wave st (m + 1))) ]
      in
      let interval, cp, _ =
        interval_of ~options (Sources.example2 m) inputs "X"
      in
      (* the ring merge performs d seed firings per wave of n = m-1
         computed elements: predicted interval 2(n+d)/(n+1) *)
      let predicted =
        2.0 *. float_of_int (m - 1 + distance) /. float_of_int m
      in
      if Float.abs (interval -. predicted) > 0.05 then ok2 := false;
      let levels =
        int_of_float (Float.round (Float.log2 (float_of_int distance)))
      in
      Table.add_row table2
        [ string_of_int distance; string_of_int levels;
          string_of_int (Graph.node_count cp.PC.cp_graph);
          Printf.sprintf "%.3f (pred %.3f)" interval predicted ])
    [ 2; 4; 8 ];
  print_table ctx table2;
  verdict ctx ~ok:!ok2
    "the log2(d)-level G tree tracks its predicted near-maximal rate";
  record ctx ~predicted:2.0 ~measured:!worst_comp
    ~ok:(!ok && !ok2)
    ~detail:"worst companion interval over body depths 1..8" "E8"
    "companion tree stays at 1/2 as the recurrence deepens"

(* ------------------------------------------------------------------ *)
(* E9 — Figure 3 / Theorem 4: the whole pipe-structured program.        *)
(* ------------------------------------------------------------------ *)

let e9 ctx =
  header ctx "E9" "Figure 3 pipe-structured program"
    "blocks connected producer-to-consumer and balanced: the complete \
     program is fully pipelined end to end";
  let m = 126 in
  let st = Random.State.make [| 9 |] in
  let inputs =
    [ ("C", D.wave_of_floats (Sources.tame_wave st (m + 2)));
      ("B", D.wave_of_floats (Sources.tame_wave st (m + 2))) ]
  in
  let interval, cp, result = interval_of (Sources.figure3 m) inputs "X" in
  let a_interval = Sim.Metrics.output_interval result "A" in
  let predicted = 2.0 *. float_of_int (m + 2) /. float_of_int m in
  let table = Table.create [ "output"; "predicted"; "measured" ] in
  Table.add_row table [ "A"; "2.000"; Printf.sprintf "%.3f" a_interval ];
  Table.add_row table
    [ "X"; Printf.sprintf "%.3f" predicted; Printf.sprintf "%.3f" interval ];
  print_table ctx table;
  pf ctx "  block mappings: %s\n"
    (String.concat ", "
       (List.map (fun (b, s) -> b ^ ":" ^ s) cp.PC.cp_schemes));
  let ok = Float.abs (interval -. predicted) <= 0.15 && a_interval <= 2.05 in
  verdict ctx ~ok "whole program pipelined end to end (values oracle-checked)";
  record ctx ~predicted ~measured:interval ~ok "E9"
    "Figure 3 pipe-structured program end to end"

(* ------------------------------------------------------------------ *)
(* E10 — Section 8: naive >= reduced >= optimal = LP dual bound.        *)
(* ------------------------------------------------------------------ *)

let e10 ctx =
  header ctx "E10" "optimal buffering"
    "balancing is polynomial; reduction helps; the optimum equals the \
     LP dual of min-cost flow";
  let table =
    Table.create
      [ "nodes"; "naive"; "reduced"; "optimal"; "dual bound"; "rate ok" ]
  in
  let ok = ref true in
  List.iter
    (fun (seed, layers, width) ->
      let g = Test_graphs.random_dag ~seed ~layers ~width in
      let cost l = Balance.Balancer.buffer_cost g l in
      let naive = cost (Balance.Balancer.naive_levels g) in
      let reduced =
        cost
          (Balance.Balancer.reduce_levels g (Balance.Balancer.naive_levels g))
      in
      let optimal = cost (Balance.Balancer.optimal_levels g) in
      let bound = Balance.Balancer.dual_lower_bound g in
      let balanced = Balance.Balancer.balance ~strategy:`Optimal g in
      let r =
        Sim.Engine.run_cfg Run_config.default balanced
          ~inputs:[ ("a", List.init 300 (fun i -> Value.Int i)) ]
      in
      let rate_ok = Sim.Metrics.fully_pipelined r "r" in
      if
        not
          (naive >= reduced && reduced >= optimal && optimal = bound
         && rate_ok)
      then ok := false;
      Table.add_row table
        [ string_of_int (Graph.node_count g); string_of_int naive;
          string_of_int reduced; string_of_int optimal; string_of_int bound;
          (if rate_ok then "yes" else "NO") ])
    [ (1, 4, 4); (2, 6, 6); (3, 8, 8); (4, 10, 10); (5, 12, 12) ];
  print_table ctx table;
  verdict ctx ~ok:!ok "naive >= reduced >= optimal = dual bound, all at rate 1/2";
  record ctx ~ok:!ok ~units:"buffer stages"
    ~detail:"naive >= reduced >= optimal = LP dual bound on 5 random DAGs"
    "E10" "optimal buffering matches the min-cost-flow dual"

(* ------------------------------------------------------------------ *)
(* E11 — Section 2: array-memory traffic.                               *)
(* ------------------------------------------------------------------ *)

let e11 ctx =
  header ctx "E11" "array memory traffic"
    "streaming arrays keeps AM traffic at 1/8 or less of operation \
     packets; a stored-array baseline pays far more and runs slower";
  let m = 62 in
  let _, cp = D.compile_source (Sources.figure3 m) in
  let st = Random.State.make [| 11 |] in
  let wave =
    [ ("C", D.wave_of_floats (Sources.tame_wave st (m + 2)));
      ("B", D.wave_of_floats (Sources.tame_wave st (m + 2))) ]
  in
  let feeds =
    List.map
      (fun (n, w) -> (n, List.concat_map (fun _ -> w) (List.init 4 Fun.id)))
      wave
  in
  let table =
    Table.create
      [ "policy"; "PEs"; "time"; "AM ops"; "AM fraction"; "throughput" ]
  in
  let fractions = ref [] in
  List.iter
    (fun (policy, pes) ->
      let arch =
        { Arch.default with Arch.array_policy = policy; n_pe = pes }
      in
      let r = ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs:feeds in
      let outputs = List.length (ME.output_values r "X") in
      let throughput =
        float_of_int outputs /. float_of_int (max 1 r.ME.end_time)
      in
      fractions := (policy, ME.am_fraction r.ME.stats) :: !fractions;
      Table.add_row table
        [ (match policy with
          | Arch.Streamed -> "streamed"
          | Arch.Stored -> "stored");
          string_of_int pes; string_of_int r.ME.end_time;
          string_of_int r.ME.stats.ME.am_ops;
          Printf.sprintf "%.3f" (ME.am_fraction r.ME.stats);
          Printf.sprintf "%.4f" throughput ])
    [ (Arch.Streamed, 4); (Arch.Streamed, 16); (Arch.Streamed, 64);
      (Arch.Stored, 4); (Arch.Stored, 16); (Arch.Stored, 64) ];
  print_table ctx table;
  let streamed_max =
    List.fold_left
      (fun acc (p, f) -> if p = Arch.Streamed then Float.max acc f else acc)
      0.0 !fractions
  in
  let stored_min =
    List.fold_left
      (fun acc (p, f) -> if p = Arch.Stored then Float.min acc f else acc)
      1.0 !fractions
  in
  verdict ctx
    ~ok:(streamed_max <= 0.125)
    "streamed AM fraction %.3f <= 1/8" streamed_max;
  verdict ctx
    ~ok:(stored_min > streamed_max)
    "stored baseline pays more AM traffic (%.3f)" stored_min;
  record ctx ~predicted:0.125 ~measured:streamed_max
    ~ok:(streamed_max <= 0.125 && stored_min > streamed_max)
    ~units:"AM fraction" "E11" "streamed arrays keep AM traffic under 1/8"

(* ------------------------------------------------------------------ *)
(* E12 — Section 9 remark: trading delay for rate with a long FIFO.     *)
(* ------------------------------------------------------------------ *)

(* R interleaved independent recurrences x_{r,i} = a*x_{r,i-1} + b_{r,i},
   streamed i-major: the feedback distance becomes R, so a delay line of
   ~R in the loop lets a deep recurrence run at the maximal rate (the
   paper's "delay equal to the number of elements" trade-off). *)
let interleaved_recurrence ~rows ~len =
  let g = Graph.create () in
  let b = Graph.add g (Opcode.Input "b") [||] in
  let mul =
    Graph.add g ~label:"xmul" (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_const (Value.Real 0.5) |]
  in
  let add =
    Graph.add g ~label:"xadd" (Opcode.Arith Opcode.Add)
      [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:mul ~dst:add ~port:0;
  Graph.connect g ~src:b ~dst:add ~port:1;
  let n = rows * len in
  let mctl =
    Graph.add g
      (Opcode.Bool_source
         (Ctlseq.make ~cyclic:true [ (false, rows); (true, n - rows) ]))
      [||]
  in
  let dctl =
    Graph.add g
      (Opcode.Bool_source
         (Ctlseq.make ~cyclic:true [ (true, n - rows); (false, rows) ]))
      [||]
  in
  let ms =
    Graph.add g ~label:"loop" Opcode.Merge_switch
      [| Graph.In_arc; Graph.In_arc; Graph.In_const (Value.Real 0.);
         Graph.In_arc |]
  in
  Graph.connect g ~src:mctl ~dst:ms ~port:0;
  Graph.connect g ~src:dctl ~dst:ms ~port:3;
  Graph.connect g ~src:add ~dst:ms ~port:1;
  (if rows <= 2 then Graph.connect_slot g ~src:ms ~slot:1 ~dst:mul ~port:0
   else begin
     let fifo =
       Graph.add g ~label:"delay" (Opcode.Fifo (rows - 2)) [| Graph.In_arc |]
     in
     Graph.connect_slot g ~src:ms ~slot:1 ~dst:fifo ~port:0;
     Graph.connect g ~src:fifo ~dst:mul ~port:0
   end);
  let out = Graph.add g (Opcode.Output "x") [| Graph.In_arc |] in
  Graph.connect g ~src:ms ~dst:out ~port:0;
  g

let e12 ctx =
  header ctx "E12" "delay-for-rate trade-off"
    "a cyclic recurrence reaches the maximum rate when a delay (FIFO) \
     of length ~ the interleaving factor is inserted in the loop";
  let len = 64 in
  let table = Table.create [ "interleaved rows"; "delay line"; "interval" ] in
  let ok = ref true in
  let deepest = ref 0.0 in
  List.iter
    (fun rows ->
      let g = interleaved_recurrence ~rows ~len in
      let n = rows * len in
      let st = Random.State.make [| rows |] in
      let inputs =
        [ ("b",
           List.concat_map
             (fun _ ->
               List.map (fun f -> Value.Real f) (Sources.random_wave st n))
             (List.init 6 Fun.id)) ]
      in
      let r = Sim.Engine.run_cfg Run_config.default g ~inputs in
      let interval = Sim.Metrics.output_interval r "x" in
      deepest := interval;
      (match rows with
      | 1 -> if interval < 2.8 then ok := false (* direct loop: 1/3 *)
      | _ -> if rows >= 4 && interval > 2.1 then ok := false);
      Table.add_row table
        [ string_of_int rows; string_of_int (max 0 (rows - 2));
          Printf.sprintf "%.3f" interval ])
    [ 1; 2; 4; 16; 64 ];
  print_table ctx table;
  verdict ctx ~ok:!ok
    "rate climbs from 1/3 to the maximum as the delay line grows";
  record ctx ~predicted:2.0 ~measured:!deepest ~ok:!ok
    ~detail:"interval with 64 interleaved rows (delay line 62)" "E12"
    "delay-for-rate trade-off reaches the maximal rate"

(* ------------------------------------------------------------------ *)
(* E13 — Section 9 remark: two-dimensional arrays.                      *)
(* ------------------------------------------------------------------ *)

let e13 ctx =
  header ctx "E13" "multi-dimensional extension"
    "the extension to arrays of multiple dimensions is straightforward: \
     2-D forall blocks stream row-major and stay pipelined";
  let table = Table.create [ "grid"; "predicted"; "measured" ] in
  let ok = ref true in
  let last = ref (0.0, 0.0) in
  List.iter
    (fun n ->
      let st = Random.State.make [| n |] in
      let inputs =
        [ ("G", D.wave_of_floats (Sources.random_wave st (n * n))) ]
      in
      let interval, _, _ = interval_of (Sources.grid_2d n) inputs "L" in
      let inner = (n - 2) * (n - 2) in
      let predicted = 2.0 *. float_of_int (n * n) /. float_of_int inner in
      if Float.abs (interval -. predicted) > 0.25 then ok := false;
      last := (predicted, interval);
      Table.add_row table
        [ Printf.sprintf "%dx%d" n n; Printf.sprintf "%.3f" predicted;
          Printf.sprintf "%.3f" interval ])
    [ 8; 16; 32 ];
  print_table ctx table;
  verdict ctx ~ok:!ok "2-D stencils pipeline at the input-limited rate";
  let predicted, measured = !last in
  record ctx ~predicted ~measured ~ok:!ok ~detail:"32x32 grid" "E13"
    "2-D forall blocks stream row-major and stay pipelined"

(* ------------------------------------------------------------------ *)
(* X1 — ablation: balancing strategies on compiled programs.            *)
(* ------------------------------------------------------------------ *)

let fifo_stages g =
  Graph.fold_nodes g ~init:0 ~f:(fun acc n ->
      match n.Graph.op with Opcode.Fifo k -> acc + k | _ -> acc)

let x1 ctx =
  header ctx "X1" "ablation: balancing strategies"
    "(extension) the three balancers on compiled programs: all reach the \
     maximal rate; buffer stages are ordered naive >= reduced >= optimal";
  let m = 62 in
  let st = Random.State.make [| 41 |] in
  let inputs =
    [ ("C", D.wave_of_floats (Sources.tame_wave st (m + 2)));
      ("B", D.wave_of_floats (Sources.tame_wave st (m + 2))) ]
  in
  let table =
    Table.create [ "strategy"; "cells"; "buffer stages"; "interval" ]
  in
  let ok = ref true in
  let costs = ref [] in
  List.iter
    (fun (label, balance) ->
      let options = { PC.default_options with PC.balance } in
      let interval, cp, _ =
        interval_of ~options (Sources.figure3 m) inputs "X"
      in
      let stages = fifo_stages cp.PC.cp_graph in
      costs := stages :: !costs;
      (match balance with
      | `None -> ()
      | _ -> if interval > 2.2 then ok := false);
      Table.add_row table
        [ label; string_of_int (Graph.node_count cp.PC.cp_graph);
          string_of_int stages; Printf.sprintf "%.3f" interval ])
    [ ("none", `None); ("naive", `Naive); ("reduced", `Reduced);
      ("optimal", `Optimal) ];
  (match List.rev !costs with
  | [ _none; naive; reduced; optimal ] ->
    if not (naive >= reduced && reduced >= optimal) then ok := false
  | _ -> ok := false);
  print_table ctx table;
  verdict ctx ~ok:!ok "all balanced variants pipelined; buffers ordered";
  record ctx ~ok:!ok ~units:"buffer stages"
    ~detail:"naive/reduced/optimal balancing of Figure 3, all pipelined" "X1"
    "ablation: balancing strategies on compiled programs"

(* ------------------------------------------------------------------ *)
(* X2 — ablation: cross-block CSE.                                      *)
(* ------------------------------------------------------------------ *)

let x2 ctx =
  header ctx "X2" "ablation: common-subexpression elimination"
    "(extension) deduplicating identical cells across blocks shrinks the \
     machine program without changing values or rate";
  let m = 62 in
  let st = Random.State.make [| 42 |] in
  let inputs =
    [ ("C", D.wave_of_floats (Sources.tame_wave st (m + 2)));
      ("B", D.wave_of_floats (Sources.tame_wave st (m + 2))) ]
  in
  let table = Table.create [ "CSE"; "cells"; "arcs"; "interval" ] in
  let cells = ref [] in
  List.iter
    (fun (label, cse) ->
      let options = { PC.default_options with PC.cse } in
      let interval, cp, _ =
        interval_of ~options (Sources.figure3 m) inputs "X"
      in
      cells := Graph.node_count cp.PC.cp_graph :: !cells;
      Table.add_row table
        [ label; string_of_int (Graph.node_count cp.PC.cp_graph);
          string_of_int (Graph.arc_count cp.PC.cp_graph);
          Printf.sprintf "%.3f" interval ])
    [ ("off", false); ("on", true) ];
  print_table ctx table;
  let ok =
    match !cells with [ on; off ] -> on <= off | _ -> false
  in
  verdict ctx ~ok "CSE never grows the program; values oracle-checked both ways";
  record ctx ~ok ~units:"cells"
    ?measured:(match !cells with [ on; _ ] -> Some (float_of_int on) | _ -> None)
    ~detail:"cell count with cross-block CSE on (off in table)" "X2"
    "ablation: cross-block common-subexpression elimination"

(* ------------------------------------------------------------------ *)
(* X3 — the scientific-kernel suite.                                    *)
(* ------------------------------------------------------------------ *)

let x3 ctx =
  header ctx "X3" "scientific-kernel suite"
    "(extension) Livermore-style kernels in the paper's class: predicted \
     vs measured intervals, doubly verified (interpreter + OCaml)";
  let n = 96 in
  let table =
    Table.create [ "kernel"; "cells"; "predicted"; "measured"; "scheme" ]
  in
  let ok = ref true in
  List.iter
    (fun (k : Kernels.kernel) ->
      let st = Random.State.make [| 43 |] in
      let inputs =
        k.Kernels.inputs n st
        @ List.map (fun (name, v) -> (name, [ v ])) k.Kernels.scalar_inputs
      in
      let prog, cp =
        D.compile_source ~scalar_inputs:k.Kernels.scalar_inputs
          (k.Kernels.source n)
      in
      let result = D.run_cfg ~waves:8 Run_config.default cp ~inputs in
      D.check_against_oracle prog cp result ~inputs;
      let got =
        List.map Value.to_real (D.output_wave cp result k.Kernels.output)
      in
      List.iter2
        (fun a b -> if Float.abs (a -. b) > 1e-9 then ok := false)
        (k.Kernels.reference n inputs)
        got;
      let interval = Sim.Metrics.output_interval result k.Kernels.output in
      let predicted = k.Kernels.predicted_interval n in
      if Float.abs (interval -. predicted) /. predicted > 0.08 then
        ok := false;
      let schemes =
        String.concat "+"
          (List.sort_uniq compare (List.map snd cp.PC.cp_schemes))
      in
      Table.add_row table
        [ k.Kernels.name;
          string_of_int (Graph.node_count cp.PC.cp_graph);
          Printf.sprintf "%.3f" predicted; Printf.sprintf "%.3f" interval;
          schemes ])
    Kernels.all;
  print_table ctx table;
  verdict ctx ~ok:!ok
    "every kernel matches both oracles and its predicted interval";
  record ctx ~ok:!ok
    ~detail:
      (Printf.sprintf "%d kernels, values double-checked, intervals within 8%%"
         (List.length Kernels.all))
    "X3" "scientific-kernel suite at predicted intervals"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the toolchain itself                    *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  print_endline "\n=== toolchain micro-benchmarks (bechamel) ===";
  let open Bechamel in
  let source = Sources.figure3 62 in
  let st = Random.State.make [| 1 |] in
  let inputs =
    [ ("C", D.wave_of_floats (Sources.tame_wave st 64));
      ("B", D.wave_of_floats (Sources.tame_wave st 64)) ]
  in
  let compiled = snd (D.compile_source source) in
  let dag = Test_graphs.random_dag ~seed:1 ~layers:10 ~width:10 in
  let tests =
    Test.make_grouped ~name:"toolchain"
      [
        Test.make ~name:"compile fig3 (m=62)"
          (Staged.stage (fun () -> ignore (D.compile_source source)));
        Test.make ~name:"simulate fig3, 1 wave"
          (Staged.stage (fun () ->
               ignore (D.run_cfg ~waves:1 Run_config.default compiled ~inputs)));
        Test.make ~name:"optimal balance, 211-node DAG"
          (Staged.stage (fun () ->
               ignore (Balance.Balancer.optimal_levels dag)));
        Test.make ~name:"interpreter fig3, 1 wave"
          (Staged.stage
             (let prog = Val_lang.Parser.parse_program source in
              fun () -> ignore (D.oracle_outputs prog ~inputs)));
      ]
  in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (e :: _) -> Printf.printf "  %-45s %10.3f ms/run\n" name (e /. 1e6)
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    (List.sort compare rows)

(* The experiment index: submission order is report order and the
   canonical order of BENCH_PIPELINE.json entries.  Each entry lists the
   ids it records so the order-stability check below can assert the
   merged entry stream without caring how work was scheduled. *)
let experiments : (string list * (ctx -> unit)) list =
  [
    ([ "E1" ], e1);
    ([ "E2" ], e2);
    ([ "E3" ], e3);
    ([ "E4" ], e4);
    ([ "E5" ], e5);
    ([ "E6"; "E7" ], e6_e7);
    ([ "E8" ], e8);
    ([ "E9" ], e9);
    ([ "E10" ], e10);
    ([ "E11" ], e11);
    ([ "E12" ], e12);
    ([ "E13" ], e13);
    ([ "X1" ], x1);
    ([ "X2" ], x2);
    ([ "X3" ], x3);
  ]

let jobs_from_argv () =
  let jobs = ref None in
  let n = Array.length Sys.argv in
  for i = 1 to n - 1 do
    if Sys.argv.(i) = "--jobs" && i + 1 < n then
      jobs := int_of_string_opt Sys.argv.(i + 1)
  done;
  match !jobs with Some j when j >= 1 -> j | _ -> Exec.Pool.default_jobs ()

let () =
  print_endline
    "Reproduction harness: Dennis & Gao, 'Maximum Pipelining of Array \
     Operations on Static Data Flow Machine' (ICPP 1983)";
  let jobs = jobs_from_argv () in
  (* job-graph mode: the experiments are independent, so fan them over
     domains; merging buffers in submission order keeps the report and
     the JSON byte-identical to a sequential run *)
  let ctxs, elapsed =
    Exec.Pool.timed (fun () ->
        Exec.Pool.map ~jobs
          (fun (_ids, experiment) ->
            let ctx = new_ctx () in
            experiment ctx;
            ctx)
          experiments)
  in
  List.iter (fun ctx -> print_string (Buffer.contents ctx.buf)) ctxs;
  let failures =
    List.fold_left (fun acc ctx -> acc + ctx.ctx_failures) 0 ctxs
  in
  let entries =
    List.concat_map (fun ctx -> List.of_seq (Queue.to_seq ctx.entries)) ctxs
  in
  Printf.printf "\n%d experiments in %.2fs (%d worker%s)\n"
    (List.length experiments) elapsed jobs (if jobs = 1 then "" else "s");
  (* order stability: merged entries must follow the experiment index
     exactly, whatever the worker count *)
  let expected_ids = List.concat_map fst experiments in
  let got_ids = List.map (fun e -> e.Obs.Bench_json.id) entries in
  let order_ok = got_ids = expected_ids in
  Printf.printf "  [%s] entry order stable (%s)\n"
    (if order_ok then "PASS" else "FAIL")
    (String.concat "," got_ids);
  let failures = failures + if order_ok then 0 else 1 in
  (try micro_benchmarks ()
   with exn ->
     Printf.printf "  (micro-benchmarks skipped: %s)\n"
       (Printexc.to_string exn));
  let json_path =
    Option.value (Sys.getenv_opt "BENCH_JSON") ~default:"BENCH_PIPELINE.json"
  in
  Obs.Bench_json.write_file ~path:json_path
    ~meta:
      [ ("suite", Obs.Json.String "dennis-gao-icpp83");
        ("generated_by", Obs.Json.String "bench/main.exe") ]
    entries;
  Printf.printf "\nwrote %s (%d experiments)\n" json_path
    (List.length entries);
  Printf.printf "\n%s\n"
    (if failures = 0 then "ALL EXPERIMENTS PASS"
     else Printf.sprintf "%d EXPERIMENT(S) FAILED" failures);
  exit (if failures = 0 then 0 else 1)
