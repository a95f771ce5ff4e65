open Ast

exception Error of string

type value =
  | VInt of int
  | VReal of float
  | VBool of bool
  | VArray of varray
  | VGrid of vgrid

and varray = { lo : int; elts : value array }

and vgrid = { lo_i : int; lo_j : int; rows : value array array }

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let to_real = function
  | VInt i -> float_of_int i
  | VReal f -> f
  | VBool _ -> errf "boolean used as a number"
  | VArray _ | VGrid _ -> errf "array used as a number"

let rec value_equal ?(eps = 1e-9) a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | (VInt _ | VReal _), (VInt _ | VReal _) ->
    Float.abs (to_real a -. to_real b) <= eps
  | VArray x, VArray y ->
    x.lo = y.lo
    && Array.length x.elts = Array.length y.elts
    && Array.for_all2 (value_equal ~eps) x.elts y.elts
  | VGrid x, VGrid y ->
    x.lo_i = y.lo_i && x.lo_j = y.lo_j
    && Array.length x.rows = Array.length y.rows
    && Array.for_all2
         (fun r1 r2 ->
           Array.length r1 = Array.length r2
           && Array.for_all2 (value_equal ~eps) r1 r2)
         x.rows y.rows
  | _ -> false

let rec pp_value ppf = function
  | VInt i -> Format.fprintf ppf "%d" i
  | VReal f -> Format.fprintf ppf "%g" f
  | VBool b -> Format.fprintf ppf "%b" b
  | VArray { lo; elts } ->
    Format.fprintf ppf "[%d:" lo;
    Array.iter (fun v -> Format.fprintf ppf " %a" pp_value v) elts;
    Format.fprintf ppf "]"
  | VGrid { lo_i; lo_j; rows } ->
    Format.fprintf ppf "[%d,%d:" lo_i lo_j;
    Array.iter
      (fun row ->
        Format.fprintf ppf " [";
        Array.iter (fun v -> Format.fprintf ppf " %a" pp_value v) row;
        Format.fprintf ppf "]")
      rows;
    Format.fprintf ppf "]"

let varray_of_floats ~lo xs =
  VArray { lo; elts = Array.of_list (List.map (fun f -> VReal f) xs) }

let floats_of_varray = function
  | VArray { elts; _ } -> Array.to_list (Array.map to_real elts)
  | VInt _ | VReal _ | VBool _ | VGrid _ -> errf "expected a 1-D array value"

type env = (string * value) list

let env_of_bindings bindings = bindings

let lookup env name =
  match List.assoc_opt name env with
  | Some v -> v
  | None -> errf "unbound identifier %s at evaluation time" name

let arith op a b =
  (* Integer arithmetic is exact when both operands are integers; any real
     operand promotes the operation to floating point. *)
  match (a, b) with
  | VInt x, VInt y -> (
    match op with
    | Add -> VInt (x + y)
    | Sub -> VInt (x - y)
    | Mul -> VInt (x * y)
    | Div ->
      if y = 0 then errf "integer division by zero" else VInt (x / y)
    | Min -> VInt (min x y)
    | Max -> VInt (max x y)
    | _ -> assert false)
  | _ ->
    let x = to_real a and y = to_real b in
    let f =
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Min -> Float.min x y
      | Max -> Float.max x y
      | _ -> assert false
    in
    VReal f

let compare_vals op a b =
  let c =
    match (a, b) with
    | VInt x, VInt y -> compare x y
    | VBool x, VBool y -> compare x y
    | _ -> compare (to_real a) (to_real b)
  in
  let r =
    match op with
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | Eq -> c = 0
    | Ne -> c <> 0
    | _ -> assert false
  in
  VBool r

let as_bool = function
  | VBool b -> b
  | VInt _ | VReal _ | VArray _ | VGrid _ ->
    errf "expected a boolean value"

let index_value env = function
  | Ix_var (v, off) -> (
    match lookup env v with
    | VInt i -> i + off
    | _ -> errf "index variable %s is not an integer" v)
  | Ix_const ce ->
    (* Params are bound in the environment as VInt. *)
    let rec go = function
      | C_int i -> i
      | C_name n -> (
        match lookup env n with
        | VInt i -> i
        | _ -> errf "constant name %s is not an integer" n)
      | C_add (a, b) -> go a + go b
      | C_sub (a, b) -> go a - go b
      | C_mul (a, b) -> go a * go b
    in
    go ce

let select_array name arr_value indices =
  match (arr_value, indices) with
  | VArray { lo; elts }, [ i ] ->
    let k = i - lo in
    if k < 0 || k >= Array.length elts then
      errf "index %d out of range for array %s [%d, %d]" i name lo
        (lo + Array.length elts - 1)
    else elts.(k)
  | VGrid { lo_i; lo_j; rows }, [ i; j ] ->
    let ki = i - lo_i in
    if ki < 0 || ki >= Array.length rows then
      errf "row index %d out of range for grid %s" i name
    else
      let row = rows.(ki) in
      let kj = j - lo_j in
      if kj < 0 || kj >= Array.length row then
        errf "column index %d out of range for grid %s" j name
      else row.(kj)
  | VArray _, _ -> errf "array %s selected with %d subscripts" name 2
  | VGrid _, _ -> errf "grid %s needs two subscripts" name
  | _ -> errf "%s is not an array" name

let rec eval_expr env expr =
  match expr with
  | Int_lit i -> VInt i
  | Real_lit f -> VReal f
  | Bool_lit b -> VBool b
  | Var name -> lookup env name
  | Binop (op, a, b) when is_arith op ->
    arith op (eval_expr env a) (eval_expr env b)
  | Binop (op, a, b) when is_compare op ->
    compare_vals op (eval_expr env a) (eval_expr env b)
  | Binop (And, a, b) ->
    (* Val's & and | are strict (both operands are computed in the dataflow
       graph), so evaluate both here as well. *)
    let x = as_bool (eval_expr env a) in
    let y = as_bool (eval_expr env b) in
    VBool (x && y)
  | Binop (Or, a, b) ->
    let x = as_bool (eval_expr env a) in
    let y = as_bool (eval_expr env b) in
    VBool (x || y)
  | Binop _ -> assert false
  | Unop (Neg, a) -> (
    match eval_expr env a with
    | VInt i -> VInt (-i)
    | VReal f -> VReal (-.f)
    | _ -> errf "unary - applied to a non-number")
  | Unop (Not, a) -> VBool (not (as_bool (eval_expr env a)))
  | Unop (Fn Abs, a) -> (
    match eval_expr env a with
    | VInt i -> VInt (abs i)
    | v -> VReal (Float.abs (to_real v)))
  | Unop (Fn f, a) ->
    let x = to_real (eval_expr env a) in
    VReal
      (match f with
      | Sqrt -> sqrt x
      | Exp -> exp x
      | Ln -> log x
      | Sin -> sin x
      | Cos -> cos x
      | Abs -> assert false)
  | Select (name, indices) ->
    let arr = lookup env name in
    let ixs = List.map (index_value env) indices in
    select_array name arr ixs
  | Let (defs, body) ->
    let env =
      List.fold_left
        (fun env { def_name; def_rhs; _ } ->
          (def_name, eval_expr env def_rhs) :: env)
        env defs
    in
    eval_expr env body
  | If (c, t, e) ->
    if as_bool (eval_expr env c) then eval_expr env t else eval_expr env e

let eval_forall ~params env fa =
  let const ce = Typecheck.eval_const params ce in
  match fa.fa_ranges with
  | [ { rng_var; rng_lo; rng_hi } ] ->
    let lo = const rng_lo and hi = const rng_hi in
    if hi < lo then errf "empty forall range [%d, %d]" lo hi;
    let elt i =
      let env = (rng_var, VInt i) :: env in
      let env =
        List.fold_left
          (fun env { def_name; def_rhs; _ } ->
            (def_name, eval_expr env def_rhs) :: env)
          env fa.fa_defs
      in
      eval_expr env fa.fa_body
    in
    VArray { lo; elts = Array.init (hi - lo + 1) (fun k -> elt (lo + k)) }
  | [ ri; rj ] ->
    let lo_i = const ri.rng_lo and hi_i = const ri.rng_hi in
    let lo_j = const rj.rng_lo and hi_j = const rj.rng_hi in
    if hi_i < lo_i || hi_j < lo_j then errf "empty 2-D forall range";
    let elt i j =
      let env = (ri.rng_var, VInt i) :: (rj.rng_var, VInt j) :: env in
      let env =
        List.fold_left
          (fun env { def_name; def_rhs; _ } ->
            (def_name, eval_expr env def_rhs) :: env)
          env fa.fa_defs
      in
      eval_expr env fa.fa_body
    in
    VGrid
      {
        lo_i;
        lo_j;
        rows =
          Array.init
            (hi_i - lo_i + 1)
            (fun ki ->
              Array.init (hi_j - lo_j + 1) (fun kj -> elt (lo_i + ki) (lo_j + kj)));
      }
  | _ -> errf "forall must have one or two index ranges"

(* Mutable accumulator arrays during loop execution: Val's X := X[i: P] is
   applicatively a fresh array, but since the old value is dead afterwards
   we represent loop arrays as growable (index, value) assoc built in
   order. *)
type loop_array = { mutable cells : (int * value) list (* newest first *) }

let eval_foriter ~params env fi =
  ignore params;
  let scalar_state = Hashtbl.create 8 in
  let array_state = Hashtbl.create 4 in
  let env_with_state () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) scalar_state env
  in
  List.iter
    (fun init ->
      match init with
      | Init_scalar (name, _, rhs) ->
        Hashtbl.replace scalar_state name (eval_expr (env_with_state ()) rhs)
      | Init_array (name, _, r, e) ->
        let r =
          Typecheck.eval_const
            (List.filter_map
               (fun (n, v) -> match v with VInt i -> Some (n, i) | _ -> None)
               env)
            r
        in
        let v = eval_expr (env_with_state ()) e in
        Hashtbl.replace array_state name { cells = [ (r, v) ] })
    fi.fi_inits;
  let lookup_loop_array name =
    match Hashtbl.find_opt array_state name with
    | Some la -> la
    | None -> errf "unknown loop array %s" name
  in
  (* Environment for expression evaluation: loop arrays are exposed as
     VArray snapshots (cheap enough for the test-scale loops we run). *)
  let snapshot la =
    let cells = List.sort (fun (i, _) (j, _) -> compare i j) la.cells in
    match cells with
    | [] -> errf "empty loop array"
    | (lo, _) :: _ ->
      let hi = fst (List.nth cells (List.length cells - 1)) in
      let elts = Array.make (hi - lo + 1) (VInt 0) in
      List.iter (fun (i, v) -> elts.(i - lo) <- v) cells;
      VArray { lo; elts }
  in
  let full_env () =
    Hashtbl.fold
      (fun k la acc -> (k, snapshot la) :: acc)
      array_state (env_with_state ())
  in
  let max_cycles = 10_000_000 in
  let rec run body cycles =
    if cycles > max_cycles then errf "for-iter exceeded %d cycles" max_cycles;
    let rec step env body =
      match body with
      | Iter_let (defs, rest) ->
        let env =
          List.fold_left
            (fun env { def_name; def_rhs; _ } ->
              (def_name, eval_expr env def_rhs) :: env)
            env defs
        in
        step env rest
      | Iter_if (c, t, e) ->
        if as_bool (eval_expr env c) then step env t else step env e
      | Iter_continue updates ->
        (* All RHS are evaluated in the pre-update environment (Val's
           simultaneous rebinding semantics). *)
        let staged =
          List.map
            (fun (name, upd) ->
              match upd with
              | Upd_expr rhs -> `Scalar (name, eval_expr env rhs)
              | Upd_append (arr, ix, e) ->
                let i = index_value env ix in
                `Append (arr, i, eval_expr env e))
            updates
        in
        List.iter
          (function
            | `Scalar (name, v) -> Hashtbl.replace scalar_state name v
            | `Append (arr, i, v) ->
              let la = lookup_loop_array arr in
              la.cells <- (i, v) :: la.cells)
          staged;
        `Continue
      | Iter_result e -> `Done (eval_expr env e)
    in
    match step (full_env ()) body with
    | `Continue -> run body (cycles + 1)
    | `Done v -> v
  in
  run fi.fi_body 0

let eval_block ~params env blk =
  match blk.blk_rhs with
  | Forall fa -> eval_forall ~params env fa
  | Foriter fi -> eval_foriter ~params env fi

let eval_program ~inputs prog =
  let params =
    List.fold_left
      (fun acc (name, ce) -> (name, Typecheck.eval_const acc ce) :: acc)
      [] prog.prog_params
  in
  let env0 = List.map (fun (n, v) -> (n, VInt v)) params @ inputs in
  List.iter
    (fun inp ->
      if not (List.mem_assoc inp.in_name env0) then
        errf "missing input binding for %s" inp.in_name)
    prog.prog_inputs;
  let _, results =
    List.fold_left
      (fun (env, results) blk ->
        let v = eval_block ~params env blk in
        ((blk.blk_name, v) :: env, (blk.blk_name, v) :: results))
      (env0, []) prog.prog_blocks
  in
  List.rev results
