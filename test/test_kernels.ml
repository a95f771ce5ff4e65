(* Kernel suite tests: each kernel compiles, matches BOTH the Val
   interpreter and an independent OCaml reference, and pipelines at its
   predicted rate. *)

open Dfg
module D = Compiler.Driver
module K = Kernels

let check_kernel ?(n = 48) (k : K.kernel) () =
  let st = Random.State.make [| Hashtbl.hash k.K.name |] in
  (* scalar inputs ride along as singleton streams so the interpreter
     oracle sees them; the simulator reads them as load-time constants *)
  let inputs =
    k.K.inputs n st
    @ List.map (fun (name, v) -> (name, [ v ])) k.K.scalar_inputs
  in
  let prog, compiled =
    D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
  in
  Alcotest.(check int)
    "block count" k.K.blocks
    (List.length compiled.Compiler.Program_compile.cp_schemes);
  let result = D.run_cfg ~waves:6 Run_config.default compiled ~inputs in
  (* oracle 1: the Val interpreter *)
  D.check_against_oracle prog compiled result ~inputs;
  (* oracle 2: independent OCaml reference *)
  let got =
    List.map Value.to_real (D.output_wave compiled result k.K.output)
  in
  let expected = k.K.reference n inputs in
  Alcotest.(check (list (float 1e-9)))
    "matches OCaml reference" expected got;
  (* predicted steady-state rate *)
  let interval = Sim.Metrics.output_interval result k.K.output in
  let predicted = k.K.predicted_interval n in
  Alcotest.(check bool)
    (Printf.sprintf "interval %.3f within 8%% of predicted %.3f" interval
       predicted)
    true
    (Float.abs (interval -. predicted) /. predicted <= 0.08)

(* every kernel also runs correctly when lowered to pure machine cells
   (control generators, index sources and FIFOs macro-expanded) *)
let test_kernels_macro_expanded () =
  let n = 20 in
  List.iter
    (fun (k : K.kernel) ->
      let st = Random.State.make [| Hashtbl.hash k.K.name + 1 |] in
      let inputs =
        k.K.inputs n st
        @ List.map (fun (name, v) -> (name, [ v ])) k.K.scalar_inputs
      in
      let options =
        { Compiler.Program_compile.default_options with
          Compiler.Program_compile.expand_macros = true }
      in
      let prog, compiled =
        D.compile_source ~options ~scalar_inputs:k.K.scalar_inputs
          (k.K.source n)
      in
      Graph.iter_nodes compiled.Compiler.Program_compile.cp_graph (fun nd ->
          match nd.Graph.op with
          | Opcode.Bool_source _ | Opcode.Iota _ | Opcode.Fifo _ ->
            Alcotest.failf "%s: abstract cell %s survived expansion"
              k.K.name nd.Graph.label
          | _ -> ());
      let result = D.run_cfg ~waves:2 Run_config.default compiled ~inputs in
      D.check_against_oracle prog compiled result ~inputs)
    K.all

let test_analysis_longest_path () =
  (* the longest-path analysis agrees with naive balancing levels on an
     acyclic kernel graph *)
  let k = K.find "state_eos" in
  let _, compiled =
    D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source 12)
  in
  let g = compiled.Compiler.Program_compile.cp_graph in
  match Analysis.longest_path_from_sources g with
  | None -> Alcotest.fail "kernel graph should be acyclic"
  | Some dist ->
    let levels = Balance.Balancer.naive_levels g in
    Graph.iter_nodes g (fun nd ->
        Alcotest.(check int)
          (Printf.sprintf "node %d" nd.Graph.id)
          levels.(nd.Graph.id)
          dist.(nd.Graph.id))

let test_tridiag_uses_companion () =
  let k = K.find "tridiag" in
  let _, compiled = D.compile_source (k.K.source 16) in
  Alcotest.(check (option string))
    "companion scheme selected" (Some "for-iter/companion")
    (List.assoc_opt "X" compiled.Compiler.Program_compile.cp_schemes)

let test_kernels_distinct () =
  let names = List.map (fun k -> k.K.name) K.all in
  Alcotest.(check int) "no duplicate kernels"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  List.map
    (fun k ->
      Alcotest.test_case ("kernel " ^ k.K.name) `Quick (check_kernel k))
    K.all
  @ [
      Alcotest.test_case "all kernels macro-expanded" `Quick
        test_kernels_macro_expanded;
      Alcotest.test_case "longest path = naive levels" `Quick
        test_analysis_longest_path;
      Alcotest.test_case "tridiag uses companion" `Quick
        test_tridiag_uses_companion;
      Alcotest.test_case "kernel names distinct" `Quick test_kernels_distinct;
    ]
