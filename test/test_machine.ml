(* Machine-level simulator tests: correctness against the idealized
   engine, PE scaling, and the Section 2 array-memory traffic claim. *)

open Dfg
module D = Compiler.Driver
module PC = Compiler.Program_compile
module ME = Machine.Machine_engine
module Arch = Machine.Arch

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
      if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
    m

let compiled_fig3 m =
  let _, cp = D.compile_source (fig3_source m) in
  cp

let wave m st =
  let rnd () = Random.State.float st 1.0 in
  [
    ("C", D.wave_of_floats (List.init (m + 2) (fun _ -> rnd ())));
    ("B", D.wave_of_floats (List.init (m + 2) (fun _ -> rnd ())));
  ]

let machine_inputs cp ~waves inputs =
  List.map
    (fun (name, _) ->
      let w = List.assoc name inputs in
      (name, List.concat_map (fun _ -> w) (List.init waves Fun.id)))
    cp.PC.cp_inputs

let test_matches_ideal_engine () =
  let m = 10 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 42 |] in
  let inputs = wave m st in
  let ideal = D.run_cfg ~waves:2 Run_config.default cp ~inputs in
  List.iter
    (fun policy ->
      let arch = { Arch.default with Arch.array_policy = policy } in
      let mres =
        ME.run_cfg ME.default_config ~arch cp.PC.cp_graph
          ~inputs:(machine_inputs cp ~waves:2 inputs)
      in
      Alcotest.(check bool) "quiescent" true mres.ME.quiescent;
      List.iter
        (fun (name, _) ->
          let want =
            List.map Value.to_real (Sim.Engine.output_values ideal name)
          in
          let got = List.map Value.to_real (ME.output_values mres name) in
          Alcotest.(check (list (float 1e-9)))
            (Printf.sprintf "%s values match ideal engine" name)
            want got)
        cp.PC.cp_outputs)
    [ Arch.Streamed; Arch.Stored ]

let test_am_traffic_claim () =
  (* Section 2: streamed arrays send at most ~1/8 of operation packets to
     the array memories; the stored baseline sends far more. *)
  let m = 24 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 7 |] in
  let inputs = machine_inputs cp ~waves:4 (wave m st) in
  let run policy =
    let arch = { Arch.default with Arch.array_policy = policy } in
    ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs
  in
  let streamed = run Arch.Streamed in
  let stored = run Arch.Stored in
  let f_streamed = ME.am_fraction streamed.ME.stats in
  let f_stored = ME.am_fraction stored.ME.stats in
  Alcotest.(check bool)
    (Printf.sprintf "streamed AM fraction %.3f <= 1/8" f_streamed)
    true
    (f_streamed <= 0.125);
  Alcotest.(check bool)
    (Printf.sprintf "stored %.3f > streamed %.3f" f_stored f_streamed)
    true
    (f_stored > (2.0 *. f_streamed) +. 0.01)

let test_streamed_faster_than_stored () =
  let m = 24 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 9 |] in
  let inputs = machine_inputs cp ~waves:4 (wave m st) in
  let time policy =
    let arch = { Arch.default with Arch.array_policy = policy } in
    (ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs).ME.end_time
  in
  let streamed = time Arch.Streamed and stored = time Arch.Stored in
  Alcotest.(check bool)
    (Printf.sprintf "streamed %d < stored %d" streamed stored)
    true (streamed < stored)

let test_pe_scaling () =
  (* with more PEs the completion time improves until the pipe's own
     maximal rate saturates *)
  let m = 24 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 11 |] in
  let inputs = machine_inputs cp ~waves:4 (wave m st) in
  let time n_pe =
    let arch = { Arch.default with Arch.n_pe = n_pe } in
    (ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs).ME.end_time
  in
  let t1 = time 1 and t4 = time 4 and t32 = time 32 in
  Alcotest.(check bool)
    (Printf.sprintf "1 PE (%d) slower than 4 PEs (%d)" t1 t4)
    true (t1 > t4);
  Alcotest.(check bool)
    (Printf.sprintf "4 PEs (%d) no faster than 32 (%d) by >2x" t4 t32)
    true
    (t4 >= t32);
  (* scaling must saturate: 32 PEs cannot be 8x faster than 4 *)
  Alcotest.(check bool) "saturation" true
    (float_of_int t4 /. float_of_int t32 < 8.0)

let test_packet_accounting () =
  let m = 8 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 13 |] in
  let inputs = machine_inputs cp ~waves:1 (wave m st) in
  let res = ME.run_cfg ME.default_config ~arch:Arch.default cp.PC.cp_graph ~inputs in
  let s = res.ME.stats in
  Alcotest.(check bool) "dispatches positive" true (s.ME.dispatches > 0);
  Alcotest.(check bool) "fu ops below dispatches" true
    (s.ME.fu_ops < s.ME.dispatches);
  Alcotest.(check bool) "acks accompany results" true
    (s.ME.ack_packets > 0 && s.ME.result_packets > 0);
  Alcotest.(check int) "no AM ops when streamed" 0 s.ME.am_ops

let test_fu_latency_slows_completion () =
  let m = 16 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 15 |] in
  let inputs = machine_inputs cp ~waves:3 (wave m st) in
  let time fu_latency =
    let arch = { Arch.default with Arch.fu_latency } in
    (ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs).ME.end_time
  in
  let fast = time 1 and slow = time 16 in
  Alcotest.(check bool)
    (Printf.sprintf "fu latency 1 (%d) beats 16 (%d)" fast slow)
    true (fast < slow)

let test_am_contention () =
  (* under the stored policy, a single array memory serializes the
     traffic; more AMs relieve it *)
  let m = 24 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 16 |] in
  let inputs = machine_inputs cp ~waves:3 (wave m st) in
  let time n_am =
    let arch =
      { Arch.default with Arch.array_policy = Arch.Stored; n_am }
    in
    (ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs).ME.end_time
  in
  let one = time 1 and four = time 4 in
  Alcotest.(check bool)
    (Printf.sprintf "1 AM (%d) no faster than 4 AMs (%d)" one four)
    true (one >= four)

let test_rn_latency_affects_time () =
  let m = 16 in
  let cp = compiled_fig3 m in
  let st = Random.State.make [| 17 |] in
  let inputs = machine_inputs cp ~waves:3 (wave m st) in
  let time rn_latency =
    let arch = { Arch.default with Arch.rn_latency } in
    (ME.run_cfg ME.default_config ~arch cp.PC.cp_graph ~inputs).ME.end_time
  in
  Alcotest.(check bool) "longer network, longer run" true (time 1 < time 12)

let test_arch_describe () =
  let s = Arch.describe Arch.default in
  Alcotest.(check bool) "mentions PEs" true
    (String.length s > 0 && String.contains s 'P')

(* The machine engine allocates per dispatch what the graph engine
   allocates per firing (operand values, output lists) and nothing per
   packet on top: a boxed event, a closure or a checksum would each add
   several words per dispatch.  Counted in minor-heap words, so the
   bound does not depend on the host's speed. *)
let test_allocation_per_dispatch () =
  let size = 32 and waves = 32 in
  List.iter
    (fun (k : Kernels.kernel) ->
      let st = Random.State.make [| 7; Hashtbl.hash k.Kernels.name |] in
      let _, cp =
        D.compile_source ~scalar_inputs:k.Kernels.scalar_inputs
          (k.Kernels.source size)
      in
      let wave = k.Kernels.inputs size st in
      let g = cp.PC.cp_graph in
      let inputs =
        List.map
          (fun (name, _) ->
            (name, List.concat (List.init waves (fun _ -> List.assoc name wave))))
          cp.PC.cp_inputs
      in
      let words run =
        let before = Gc.minor_words () in
        let events = run () in
        (Gc.minor_words () -. before) /. float_of_int events
      in
      let per_firing =
        words (fun () ->
            let r = Sim.Engine.run_cfg Run_config.default g ~inputs in
            Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts)
      in
      let per_dispatch =
        words (fun () ->
            let r = ME.run_cfg ME.default_config ~arch:Arch.default g ~inputs in
            r.ME.stats.ME.dispatches)
      in
      if per_dispatch > 2. *. per_firing then
        Alcotest.failf
          "%s: %.2f minor words per machine dispatch, more than twice the \
           graph engine's %.2f per firing"
          k.Kernels.name per_dispatch per_firing)
    Kernels.all

let suite =
  [
    Alcotest.test_case "matches ideal engine (both policies)" `Quick
      test_matches_ideal_engine;
    Alcotest.test_case "AM traffic claim (<= 1/8 streamed)" `Quick
      test_am_traffic_claim;
    Alcotest.test_case "streamed beats stored" `Quick
      test_streamed_faster_than_stored;
    Alcotest.test_case "PE scaling saturates" `Quick test_pe_scaling;
    Alcotest.test_case "packet accounting" `Quick test_packet_accounting;
    Alcotest.test_case "FU latency slows completion" `Quick
      test_fu_latency_slows_completion;
    Alcotest.test_case "AM contention" `Quick test_am_contention;
    Alcotest.test_case "RN latency" `Quick test_rn_latency_affects_time;
    Alcotest.test_case "arch description" `Quick test_arch_describe;
    Alcotest.test_case "minor words per dispatch within 2x graph engine's"
      `Quick test_allocation_per_dispatch;
  ]
