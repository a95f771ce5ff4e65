open Dfg
module A = Val_lang.Ast
module C = Val_lang.Classify
module Eval = Val_lang.Eval

exception Mismatch of string

let compile_source ?options ?scalar_inputs source =
  let prog = Val_lang.Parser.parse_program source in
  let pp = C.classify_program prog in
  (prog, Program_compile.compile ?options ?scalar_inputs pp)

let replicate waves xs = List.concat_map (fun _ -> xs) (List.init waves Fun.id)

let run_cfg ?(waves = 1) cfg (cp : Program_compile.compiled) ~inputs =
  let feeds =
    List.map
      (fun (name, shape) ->
        match List.assoc_opt name inputs with
        | None ->
          invalid_arg
            (Printf.sprintf "Driver.run: missing input wave for %s" name)
        | Some wave ->
          let expected = Program_compile.wave_size shape in
          if List.length wave <> expected then
            invalid_arg
              (Printf.sprintf
                 "Driver.run: input %s wave has %d packets, expected %d" name
                 (List.length wave) expected);
          (name, replicate waves wave))
      cp.Program_compile.cp_inputs
  in
  Sim.Engine.run_cfg cfg cp.Program_compile.cp_graph ~inputs:feeds

(* Thin compatibility wrapper over {!run_cfg} — new code should build a
   [Run_config.t] instead of spreading optional arguments. *)
let run ?waves ?max_time ?record_firings ?tracer ?fault
    ?sanitizer ?watchdog (cp : Program_compile.compiled) ~inputs =
  let cfg =
    { Run_config.default with
      Run_config.max_time =
        Option.value max_time ~default:Run_config.default.Run_config.max_time;
      record_firings = Option.value record_firings ~default:false;
      tracer = Option.value tracer ~default:Obs.Tracer.null;
      fault;
      sanitizer = Option.value sanitizer ~default:Fault.Sanitizer.null;
      watchdog;
    }
  in
  run_cfg ?waves cfg cp ~inputs

let wave_of_floats xs = List.map (fun f -> Value.Real f) xs

let output_wave (cp : Program_compile.compiled) result name =
  (* Waves are identical (the same input wave is replayed), so the first
     complete wave is the result; trailing packets beyond a whole number
     of waves are the legitimate prefix of the next wave (cyclic control
     sequences keep the pipe primed). *)
  let shape = List.assoc name cp.Program_compile.cp_outputs in
  let n = Program_compile.wave_size shape in
  let values = Sim.Engine.output_values result name in
  let total = List.length values in
  if total < n then
    raise
      (Mismatch
         (Printf.sprintf "output %s produced %d packets, expected at least %d"
            name total n));
  List.filteri (fun i _ -> i < n) values

(* Interpreter values flattened to packet streams. *)
let stream_of_value = function
  | Eval.VArray { elts; _ } ->
    Array.to_list elts
    |> List.map (function
         | Eval.VInt i -> Value.Int i
         | Eval.VReal f -> Value.Real f
         | Eval.VBool b -> Value.Bool b
         | Eval.VArray _ | Eval.VGrid _ ->
           invalid_arg "nested array value")
  | Eval.VGrid { rows; _ } ->
    Array.to_list rows
    |> List.concat_map (fun row ->
           Array.to_list row
           |> List.map (function
                | Eval.VInt i -> Value.Int i
                | Eval.VReal f -> Value.Real f
                | Eval.VBool b -> Value.Bool b
                | _ -> invalid_arg "nested array value"))
  | Eval.VInt i -> [ Value.Int i ]
  | Eval.VReal f -> [ Value.Real f ]
  | Eval.VBool b -> [ Value.Bool b ]

let eval_value_of_packet = function
  | Value.Int i -> Eval.VInt i
  | Value.Real f -> Eval.VReal f
  | Value.Bool b -> Eval.VBool b

(* Reconstruct interpreter-shaped inputs from packet waves using the
   program's declared ranges. *)
let eval_inputs prog ~inputs =
  let params =
    List.fold_left
      (fun acc (name, ce) ->
        (name, Val_lang.Typecheck.eval_const acc ce) :: acc)
      [] prog.A.prog_params
  in
  let const = Val_lang.Typecheck.eval_const params in
  List.filter_map
    (fun inp ->
      match (inp.A.in_type, List.assoc_opt inp.A.in_name inputs) with
      | A.Scalar _, Some [ v ] ->
        Some (inp.A.in_name, eval_value_of_packet v)
      | A.Scalar _, _ -> None
      | A.Array _, Some wave -> (
        let vals = Array.of_list (List.map eval_value_of_packet wave) in
        match inp.A.in_ranges with
        | [ (lo, _) ] ->
          Some (inp.A.in_name, Eval.VArray { lo = const lo; elts = vals })
        | [ (l1, h1); (l2, h2) ] ->
          let l1 = const l1 and h1 = const h1 in
          let l2 = const l2 and h2 = const h2 in
          let width = h2 - l2 + 1 in
          ignore h1;
          let rows =
            Array.init
              (Array.length vals / width)
              (fun r -> Array.sub vals (r * width) width)
          in
          Some (inp.A.in_name, Eval.VGrid { lo_i = l1; lo_j = l2; rows })
        | _ -> invalid_arg "inputs beyond two dimensions")
      | A.Array _, None -> None)
    prog.A.prog_inputs

let oracle_outputs prog ~inputs =
  let results = Eval.eval_program ~inputs:(eval_inputs prog ~inputs) prog in
  List.map (fun (name, v) -> (name, stream_of_value v)) results

let check_against_oracle ?(eps = 1e-9) prog (cp : Program_compile.compiled)
    result ~inputs =
  let expected = oracle_outputs prog ~inputs in
  List.iter
    (fun (name, _) ->
      let want = List.assoc name expected in
      let got = output_wave cp result name in
      if List.length want <> List.length got then
        raise
          (Mismatch
             (Printf.sprintf "output %s: %d packets, oracle has %d" name
                (List.length got) (List.length want)));
      List.iteri
        (fun k (w : Value.t) ->
          let g = List.nth got k in
          if not (Value.equal ~eps w g) then
            raise
              (Mismatch
                 (Printf.sprintf "output %s element %d: compiled %s, oracle %s"
                    name k (Value.to_string g) (Value.to_string w))))
        want)
    cp.Program_compile.cp_outputs
