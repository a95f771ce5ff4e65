open Dfg
module A = Val_lang.Ast
module C = Val_lang.Classify
module E = Expr_compile

type options = {
  scheme : Foriter_compile.scheme;
  companion_distance : int;
  balance : [ `None | `Naive | `Reduced | `Optimal ];
  expand_macros : bool;
  cse : bool;
}

let default_options =
  {
    scheme = Foriter_compile.Auto;
    companion_distance = 2;
    balance = `Optimal;
    expand_macros = false;
    cse = true;
  }

type compiled = {
  cp_graph : Graph.t;
  cp_outputs : (string * C.array_shape) list;
  cp_inputs : (string * C.array_shape) list;
  cp_shifts : (int, int) Hashtbl.t;
  cp_schemes : (string * string) list;
}

let wave_size (shape : C.array_shape) =
  List.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 shape.C.sh_ranges

let scalar_value ty name bindings =
  match List.assoc_opt name bindings with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf
         "Program_compile: scalar input %s (%s) needs a load-time value"
         name
         (A.scalar_type_name ty))

let compile ?(options = default_options) ?(scalar_inputs = [])
    (pp : C.pipe_program) =
  let g = Graph.create () in
  let params =
    List.map (fun (n, v) -> (n, Value.Int v)) pp.C.pp_params
    @ List.map
        (fun (n, ty) -> (n, scalar_value ty n scalar_inputs))
        pp.C.pp_scalar_inputs
  in
  let input_arrays =
    List.map
      (fun (name, shape) ->
        let node = Graph.add g (Opcode.Input name) [||] in
        (name, (shape, { E.src_node = node; src_ranges = shape.C.sh_ranges })))
      pp.C.pp_array_inputs
  in
  let shifts = Hashtbl.create 64 in
  if pp.C.pp_blocks = [] then
    invalid_arg "Program_compile: program has no blocks";
  let _, outputs_rev, schemes_rev =
    List.fold_left
      (fun (arrays, outputs, schemes) block ->
        let name = C.block_name block in
        let shape = C.block_shape block in
        let srcs = List.map (fun (n, (_, src)) -> (n, src)) arrays in
        let ctx, out_node, scheme_used =
          match block with
          | C.Pb_forall pf ->
            let ctx, out = Forall_compile.compile g ~params ~arrays:srcs pf in
            (ctx, out, "forall/pipeline")
          | C.Pb_foriter pi ->
            let scheme_used =
              match
                (options.scheme, Foriter_compile.analyze_scheme options.scheme pi)
              with
              | Foriter_compile.Todd, _ -> "for-iter/todd"
              | _, Ok (Recurrence.Affine _) -> "for-iter/companion"
              | _, (Ok (Recurrence.Not_affine _) | Error _) -> "for-iter/todd"
            in
            let ctx, out =
              Foriter_compile.compile ~scheme:options.scheme
                ~distance:options.companion_distance g ~params ~arrays:srcs
                pi
            in
            (ctx, out, scheme_used)
        in
        Hashtbl.iter (fun k v -> Hashtbl.replace shifts k v) ctx.E.shifts;
        let out = Graph.add g (Opcode.Output name) [| Graph.In_arc |] in
        Graph.connect g ~src:out_node ~dst:out ~port:0;
        let arrays =
          (name, (shape, { E.src_node = out_node; src_ranges = shape.C.sh_ranges }))
          :: arrays
        in
        (arrays, (name, shape) :: outputs, (name, scheme_used) :: schemes))
      (input_arrays, [], []) pp.C.pp_blocks
  in
  (* drop cells that cannot reach any output (e.g. subgraphs made dead by
     static-condition folding), then terminate remaining open slots *)
  let remap_shifts shifts id_map =
    let remapped = Hashtbl.create (Hashtbl.length shifts) in
    Hashtbl.iter
      (fun old s ->
        if old < Array.length id_map && id_map.(old) >= 0 then
          Hashtbl.replace remapped id_map.(old) s)
      shifts;
    remapped
  in
  let g, id_map = Prune.reachable_to_outputs g in
  let shifts = remap_shifts shifts id_map in
  (* cross-block common-subexpression elimination (duplicate control
     generators, selection gates, repeated arithmetic) *)
  let g, shifts =
    if options.cse then begin
      let g, id_map = Optimize.cse g in
      (g, remap_shifts shifts id_map)
    end
    else (g, shifts)
  in
  E.add_sinks_to_open_slots g;
  let shift id = Option.value ~default:0 (Hashtbl.find_opt shifts id) in
  let g =
    match options.balance with
    | `None -> g
    | (`Naive | `Reduced | `Optimal) as strategy ->
      Balance.Balancer.phase_balance ~strategy ~shift g
  in
  let g = if options.expand_macros then Macro.expand_all g else g in
  Graph.validate_exn g;
  {
    cp_graph = g;
    cp_outputs = List.rev outputs_rev;
    cp_inputs = List.map (fun (n, (shape, _)) -> (n, shape)) input_arrays;
    cp_shifts = shifts;
    cp_schemes = List.rev schemes_rev;
  }
