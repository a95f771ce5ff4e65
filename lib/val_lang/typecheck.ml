open Ast

exception Error of string

type scalar_env = (string * scalar_type) list
type array_env = (string * scalar_type) list

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let rec eval_const params = function
  | C_int i -> i
  | C_name n -> (
    match List.assoc_opt n params with
    | Some v -> v
    | None -> errf "unbound parameter %s in constant expression" n)
  | C_add (a, b) -> eval_const params a + eval_const params b
  | C_sub (a, b) -> eval_const params a - eval_const params b
  | C_mul (a, b) -> eval_const params a * eval_const params b

(* Least common type of two numeric operands ([integer]→[real]). *)
let promote t1 t2 =
  match (t1, t2) with
  | Tint, Tint -> Tint
  | (Treal | Tint), (Treal | Tint) -> Treal
  | Tbool, Tbool -> Tbool
  | _ ->
    errf "cannot combine operands of types %s and %s" (scalar_type_name t1)
      (scalar_type_name t2)

let require_numeric op t =
  match t with
  | Tint | Treal -> ()
  | Tbool -> errf "operator %s applied to boolean operand" op

let require_bool op t =
  match t with
  | Tbool -> ()
  | Tint | Treal ->
    errf "operator %s applied to %s operand" op (scalar_type_name t)

let rec check_expr ~scalars ~arrays expr =
  match expr with
  | Int_lit _ -> Tint
  | Real_lit _ -> Treal
  | Bool_lit _ -> Tbool
  | Var name -> (
    match List.assoc_opt name scalars with
    | Some t -> t
    | None ->
      if List.mem_assoc name arrays then
        errf "array %s used where a scalar is required" name
      else errf "unbound identifier %s" name)
  | Binop (op, a, b) ->
    let ta = check_expr ~scalars ~arrays a in
    let tb = check_expr ~scalars ~arrays b in
    let opname = binop_name op in
    if is_arith op then begin
      require_numeric opname ta;
      require_numeric opname tb;
      promote ta tb
    end
    else if is_compare op then begin
      (match op with
      | Eq | Ne -> ignore (promote ta tb)
      | _ ->
        require_numeric opname ta;
        require_numeric opname tb;
        ignore (promote ta tb));
      Tbool
    end
    else begin
      require_bool opname ta;
      require_bool opname tb;
      Tbool
    end
  | Unop (Neg, a) ->
    let ta = check_expr ~scalars ~arrays a in
    require_numeric "unary -" ta;
    ta
  | Unop (Fn Abs, a) ->
    let ta = check_expr ~scalars ~arrays a in
    require_numeric "abs" ta;
    ta
  | Unop (Fn f, a) ->
    let ta = check_expr ~scalars ~arrays a in
    require_numeric (math_fn_name f) ta;
    Treal
  | Unop (Not, a) ->
    let ta = check_expr ~scalars ~arrays a in
    require_bool "~" ta;
    Tbool
  | Select (name, indices) -> (
    match List.assoc_opt name arrays with
    | None ->
      if List.mem_assoc name scalars then
        errf "scalar %s subscripted like an array" name
      else errf "unbound array %s" name
    | Some elt ->
      List.iter (check_index ~scalars) indices;
      elt)
  | Let (defs, body) ->
    let scalars = check_defs ~scalars ~arrays defs in
    check_expr ~scalars ~arrays body
  | If (c, t, e) ->
    let tc = check_expr ~scalars ~arrays c in
    require_bool "if condition" tc;
    let tt = check_expr ~scalars ~arrays t in
    let te = check_expr ~scalars ~arrays e in
    promote tt te

and check_index ~scalars = function
  | Ix_var (v, _) -> (
    match List.assoc_opt v scalars with
    | Some Tint -> ()
    | Some t -> errf "index variable %s has type %s" v (scalar_type_name t)
    | None -> errf "unbound index variable %s" v)
  | Ix_const _ -> ()

and check_defs ~scalars ~arrays defs =
  List.fold_left
    (fun scalars { def_name; def_type; def_rhs } ->
      let t = check_expr ~scalars ~arrays def_rhs in
      (match def_type with
      | Some (Scalar declared) ->
        (* Declared type must be reachable by promotion (int literal
           initializing a real is fine, as in the paper's [0: 0]). *)
        if promote t declared <> declared then
          errf "definition %s declared %s but has type %s" def_name
            (scalar_type_name declared) (scalar_type_name t)
      | Some (Array _) -> errf "definition %s cannot have array type" def_name
      | None -> ());
      let t =
        match def_type with Some (Scalar declared) -> declared | _ -> t
      in
      (def_name, t) :: scalars)
    scalars defs

let check_forall ~params ~scalars ~arrays fa =
  ignore params;
  let scalars =
    List.fold_left
      (fun acc { rng_var; _ } -> (rng_var, Tint) :: acc)
      scalars fa.fa_ranges
  in
  let scalars = check_defs ~scalars ~arrays fa.fa_defs in
  check_expr ~scalars ~arrays fa.fa_body

let check_foriter ~params ~scalars ~arrays fi =
  ignore params;
  (* Loop names enter scope for the body; the accumulating array is an
     array in scope. *)
  let scalars, arrays =
    List.fold_left
      (fun (scalars, arrays) init ->
        match init with
        | Init_scalar (name, ty, rhs) ->
          let t = check_expr ~scalars ~arrays rhs in
          let t =
            match ty with
            | Some (Scalar declared) ->
              if promote t declared <> declared then
                errf "loop name %s declared %s but initialized with %s" name
                  (scalar_type_name declared) (scalar_type_name t)
              else declared
            | Some (Array _) ->
              errf "loop name %s declared array but initialized as scalar"
                name
            | None -> t
          in
          ((name, t) :: scalars, arrays)
        | Init_array (name, ty, _r, e) ->
          let te = check_expr ~scalars ~arrays e in
          let elt =
            match ty with
            | Some (Array declared) ->
              if promote te declared <> declared then
                errf "array %s declared array[%s] but initialized with %s"
                  name (scalar_type_name declared) (scalar_type_name te)
              else declared
            | Some (Scalar _) ->
              errf "loop name %s declared scalar but initialized as array"
                name
            | None -> te
          in
          (scalars, (name, elt) :: arrays))
      (scalars, arrays) fi.fi_inits
  in
  let acc_names = List.filter_map (fun (n, _) -> Some n) arrays in
  ignore acc_names;
  let rec check_body ~scalars body =
    match body with
    | Iter_let (defs, rest) ->
      let scalars = check_defs ~scalars ~arrays defs in
      check_body ~scalars rest
    | Iter_if (c, t, e) ->
      let tc = check_expr ~scalars ~arrays c in
      require_bool "loop condition" tc;
      let tt = check_body ~scalars t in
      let te = check_body ~scalars e in
      (match (tt, te) with
      | Some a, Some b -> Some (promote a b)
      | Some a, None | None, Some a -> Some a
      | None, None -> None)
    | Iter_continue updates ->
      List.iter
        (fun (name, upd) ->
          match upd with
          | Upd_expr rhs ->
            let t = check_expr ~scalars ~arrays rhs in
            (match List.assoc_opt name scalars with
            | Some declared ->
              if promote t declared <> declared then
                errf "loop update %s := ... has type %s, expected %s" name
                  (scalar_type_name t) (scalar_type_name declared)
            | None ->
              if List.mem_assoc name arrays then
                errf "array loop name %s updated with a scalar expression"
                  name
              else errf "loop update of unknown loop name %s" name)
          | Upd_append (arr, ix, e) -> (
            check_index ~scalars ix;
            match List.assoc_opt arr arrays with
            | None -> errf "append to unknown array loop name %s" arr
            | Some elt ->
              if name <> arr then
                errf "append must have the form %s := %s[...]" name name;
              let te = check_expr ~scalars ~arrays e in
              if promote te elt <> elt then
                errf "appended element has type %s, expected %s"
                  (scalar_type_name te) (scalar_type_name elt)))
        updates;
      None
    | Iter_result e ->
      (* the result of the paper's loops is the accumulated array *)
      (match e with
      | Var n when List.mem_assoc n arrays ->
        Some (List.assoc n arrays)
      | _ -> Some (check_expr ~scalars ~arrays e))
  in
  match check_body ~scalars fi.fi_body with
  | Some t -> t
  | None -> errf "for-iter body never terminates (no result arm)"

let check_program prog =
  let params =
    List.fold_left
      (fun acc (name, ce) -> (name, eval_const acc ce) :: acc)
      [] prog.prog_params
  in
  let scalars0 =
    List.map (fun (name, _) -> (name, Tint)) params
    @ List.filter_map
        (fun inp ->
          match inp.in_type with
          | Scalar t -> Some (inp.in_name, t)
          | Array _ -> None)
        prog.prog_inputs
  in
  let arrays0 =
    List.filter_map
      (fun inp ->
        match inp.in_type with
        | Array t ->
          if inp.in_ranges = [] then
            errf "array input %s is missing its index range" inp.in_name;
          Some (inp.in_name, t)
        | Scalar _ -> None)
      prog.prog_inputs
  in
  let _final_arrays =
    List.fold_left
      (fun arrays blk ->
        let declared =
          match blk.blk_type with
          | Array t -> t
          | Scalar _ -> errf "block %s must define an array" blk.blk_name
        in
        if List.mem_assoc blk.blk_name arrays then
          errf "block %s redefines an existing array" blk.blk_name;
        let t =
          match blk.blk_rhs with
          | Forall fa -> check_forall ~params ~scalars:scalars0 ~arrays fa
          | Foriter fi -> check_foriter ~params ~scalars:scalars0 ~arrays fi
        in
        if promote t declared <> declared then
          errf "block %s declared array[%s] but computes array[%s]"
            blk.blk_name
            (scalar_type_name declared)
            (scalar_type_name t);
        (blk.blk_name, declared) :: arrays)
      arrays0 prog.prog_blocks
  in
  ()
