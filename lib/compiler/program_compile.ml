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

let compile_graph ?(options = default_options) g ~shifts =
  (* one frozen view for every pass: drop cells that cannot reach any
     output (e.g. subgraphs made dead by static-condition folding), merge
     identical cells across blocks (duplicate control generators,
     selection gates, repeated arithmetic), terminate open slots, then
     balance and build the graph once *)
  let v = View.of_graph g in
  let live = Optimize.live v in
  let rep =
    if options.cse then Optimize.representatives v ~live
    else Array.init v.View.n Fun.id
  in
  (* a slot lists its destinations in connect order after CSE, last
     connected first without it; balance.digest pins both orders *)
  let v, id_of = View.merge ~reverse:(not options.cse) v ~live ~rep in
  let shifts =
    let merged = Hashtbl.create (Hashtbl.length shifts) in
    Hashtbl.iter
      (fun old s ->
        let id = id_of.(old) in
        if id >= 0 then
          match Hashtbl.find_opt merged id with
          | Some s' -> assert (s' = s)  (* merged gates share their shift *)
          | None -> Hashtbl.replace merged id s)
      shifts;
    merged
  in
  let shift id = Option.value ~default:0 (Hashtbl.find_opt shifts id) in
  let g =
    match options.balance with
    | `None -> View.to_graph v
    | (`Naive | `Reduced | `Optimal) as strategy ->
      Balance.Balancer.phase_balance_view ~strategy ~shift v
  in
  let g = if options.expand_macros then Macro.expand_all g else g in
  Graph.validate_exn g;
  (g, shifts)

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
  let g, shifts = compile_graph ~options g ~shifts in
  {
    cp_graph = g;
    cp_outputs = List.rev outputs_rev;
    cp_inputs = List.map (fun (n, (shape, _)) -> (n, shape)) input_arrays;
    cp_shifts = shifts;
    cp_schemes = List.rev schemes_rev;
  }
