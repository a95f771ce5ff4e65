open Ast

exception Not_in_class of string

let reject fmt = Printf.ksprintf (fun s -> raise (Not_in_class s)) fmt

type array_shape = { sh_elt : scalar_type; sh_ranges : (int * int) list }

type prim_forall = {
  pf_name : string;
  pf_elt : scalar_type;
  pf_ranges : (string * int * int) list;
  pf_defs : def list;
  pf_body : expr;
}

type prim_foriter = {
  pi_name : string;
  pi_elt : scalar_type;
  pi_counter : string;
  pi_first : int;
  pi_last : int;
  pi_acc : string;
  pi_init_index : int;
  pi_init : expr;
  pi_elem : expr;
}

type pipe_block = Pb_forall of prim_forall | Pb_foriter of prim_foriter

type pipe_program = {
  pp_params : (string * int) list;
  pp_scalar_inputs : (string * scalar_type) list;
  pp_array_inputs : (string * array_shape) list;
  pp_blocks : pipe_block list;
}

let block_name = function
  | Pb_forall pf -> pf.pf_name
  | Pb_foriter pi -> pi.pi_name

let block_shape = function
  | Pb_forall pf ->
    {
      sh_elt = pf.pf_elt;
      sh_ranges = List.map (fun (_, lo, hi) -> (lo, hi)) pf.pf_ranges;
    }
  | Pb_foriter pi ->
    { sh_elt = pi.pi_elt; sh_ranges = [ (pi.pi_init_index, pi.pi_last) ] }

(* ------------------------------------------------------------------ *)
(* Primitive expressions (Definition, Section 5)                        *)
(* ------------------------------------------------------------------ *)

let check_primitive_expr ~index_vars ~scalars ~arrays
    ?(select_ok = fun _ _ -> ()) expr =
  let rec go scalars expr =
    match expr with
    | Int_lit _ | Real_lit _ | Bool_lit _ -> () (* rule 1 *)
    | Var name ->
      (* rule 2: scalar identifier (index variables are scalars too) *)
      if List.mem name scalars || List.mem name index_vars then ()
      else if List.mem name arrays then
        reject "array %s used without a subscript in a primitive expression"
          name
      else reject "unbound identifier %s in a primitive expression" name
    | Binop (_, a, b) ->
      (* rule 3 *)
      go scalars a;
      go scalars b
    | Unop (_, a) -> go scalars a
    | Select (name, indices) ->
      (* rule 4: A[i+m] with i an index variable, m constant *)
      if not (List.mem name arrays) then
        reject "selection from %s, which is not an array in scope" name;
      let offsets =
        List.map
          (function
            | Ix_var (v, off) ->
              if not (List.mem v index_vars) then
                reject "subscript of %s uses %s, not an index variable" name v;
              off
            | Ix_const _ ->
              reject
                "constant subscript on %s: primitive expressions only allow \
                 A[i+m]"
                name)
          indices
      in
      if List.length indices <> 1 && List.length indices <> 2 then
        reject "array %s selected with %d subscripts" name
          (List.length indices);
      (* Multi-dimensional selections must use the index variables in
         declaration order, one per dimension, for row-major streaming. *)
      (match indices with
      | [ Ix_var (v1, _); Ix_var (v2, _) ] ->
        let pos v =
          let rec find k = function
            | [] -> -1
            | x :: _ when x = v -> k
            | _ :: tl -> find (k + 1) tl
          in
          find 0 index_vars
        in
        if pos v1 >= pos v2 then
          reject
            "2-D selection on %s must use distinct index variables in \
             declaration order"
            name
      | _ -> ());
      select_ok name offsets
    | Let (defs, body) ->
      (* rule 5 *)
      let scalars =
        List.fold_left
          (fun scalars { def_name; def_rhs; _ } ->
            go scalars def_rhs;
            def_name :: scalars)
          scalars defs
      in
      go scalars body
    | If (c, t, e) ->
      (* rule 6 *)
      go scalars c;
      go scalars t;
      go scalars e
  in
  go scalars expr

let is_primitive_expr ~index_vars ~scalars ~arrays expr =
  match check_primitive_expr ~index_vars ~scalars ~arrays expr with
  | () -> true
  | exception Not_in_class _ -> false

let array_references expr =
  let refs = ref [] in
  let rec go = function
    | Int_lit _ | Real_lit _ | Bool_lit _ | Var _ -> ()
    | Binop (_, a, b) ->
      go a;
      go b
    | Unop (_, a) -> go a
    | Select (name, indices) ->
      let offsets =
        List.filter_map
          (function Ix_var (_, off) -> Some off | Ix_const _ -> None)
          indices
      in
      refs := (name, offsets) :: !refs
    | Let (defs, body) ->
      List.iter (fun d -> go d.def_rhs) defs;
      go body
    | If (c, t, e) ->
      go c;
      go t;
      go e
  in
  go expr;
  List.rev !refs

(* ------------------------------------------------------------------ *)
(* Constant folding of scalar expressions over params                   *)
(* ------------------------------------------------------------------ *)

let rec const_int_of_expr params expr =
  match expr with
  | Int_lit i -> Some i
  | Var n -> List.assoc_opt n params
  | Binop (Add, a, b) -> combine params ( + ) a b
  | Binop (Sub, a, b) -> combine params ( - ) a b
  | Binop (Mul, a, b) -> combine params ( * ) a b
  | Unop (Neg, a) ->
    Option.map (fun v -> -v) (const_int_of_expr params a)
  | _ -> None

and combine params op a b =
  match (const_int_of_expr params a, const_int_of_expr params b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* forall blocks                                                        *)
(* ------------------------------------------------------------------ *)

let classify_forall ~params ~scalars ~arrays ~name ~elt fa =
  let const ce = Typecheck.eval_const params ce in
  let pf_ranges =
    List.map
      (fun { rng_var; rng_lo; rng_hi } ->
        let lo = const rng_lo and hi = const rng_hi in
        if hi < lo then
          reject "forall %s has empty index range [%d, %d]" name lo hi;
        (rng_var, lo, hi))
      fa.fa_ranges
  in
  (match pf_ranges with
  | [ _ ] | [ _; _ ] -> ()
  | _ -> reject "forall %s must have one or two index ranges" name);
  let index_vars = List.map (fun (v, _, _) -> v) pf_ranges in
  let scalars =
    List.fold_left
      (fun scalars d ->
        check_primitive_expr ~index_vars ~scalars ~arrays d.def_rhs;
        d.def_name :: scalars)
      scalars fa.fa_defs
  in
  check_primitive_expr ~index_vars ~scalars ~arrays fa.fa_body;
  { pf_name = name; pf_elt = elt; pf_ranges; pf_defs = fa.fa_defs;
    pf_body = fa.fa_body }

(* ------------------------------------------------------------------ *)
(* for-iter blocks                                                      *)
(* ------------------------------------------------------------------ *)

(* Decompose the loop condition into "continue while counter <= q".
   [polarity] is true when the continue arm is the then-arm. *)
let loop_bound ~params ~counter ~polarity cond =
  let const e =
    match const_int_of_expr params e with
    | Some v -> v
    | None -> reject "loop bound %s is not a compile-time constant"
                (match e with Var n -> n | _ -> "<expr>")
  in
  let is_counter = function Var v -> v = counter | _ -> false in
  match cond with
  | Binop (op, l, r) when is_counter l ->
    let k = const r in
    (match (op, polarity) with
    | Lt, true -> k - 1   (* while i <  k *)
    | Le, true -> k       (* while i <= k *)
    | Ge, false -> k - 1  (* until i >= k *)
    | Gt, false -> k      (* until i >  k *)
    | Eq, false -> k - 1  (* until i =  k *)
    | Ne, true -> k - 1   (* while i ~= k *)
    | _ ->
      reject "unsupported loop condition form on counter %s" counter)
  | Binop (op, l, r) when is_counter r ->
    let k = const l in
    (match (op, polarity) with
    | Gt, true -> k - 1   (* while k >  i *)
    | Ge, true -> k       (* while k >= i *)
    | Le, false -> k - 1  (* until k <= i *)
    | Lt, false -> k      (* until k <  i *)
    | Eq, false -> k - 1  (* until k =  i *)
    | Ne, true -> k - 1   (* while k ~= i *)
    | _ ->
      reject "unsupported loop condition form on counter %s" counter)
  | _ -> reject "loop condition must compare the counter %s to a constant"
           counter

let classify_foriter ~params ~scalars ~arrays ~name ~elt fi =
  let const ce = Typecheck.eval_const params ce in
  (* Loop names: exactly one integer counter and one accumulating array. *)
  let counter, first, acc, init_index, init_expr =
    match fi.fi_inits with
    | [ Init_scalar (c, _, c0); Init_array (a, _, r, e) ]
    | [ Init_array (a, _, r, e); Init_scalar (c, _, c0) ] ->
      let p =
        match const_int_of_expr params c0 with
        | Some p -> p
        | None -> reject "counter %s must start at a constant" c
      in
      (c, p, a, const r, e)
    | _ ->
      reject
        "for-iter %s must have exactly one scalar counter and one array \
         loop name"
        name
  in
  if init_index <> first - 1 then
    reject
      "for-iter %s: initial element index %d must be counter start - 1 (%d)"
      name init_index (first - 1);
  (* The initial element must be primitive with no index variable. *)
  check_primitive_expr ~index_vars:[] ~scalars ~arrays init_expr;
  (* Peel the definition part. *)
  let rec peel defs body =
    match body with
    | Iter_let (ds, rest) -> peel (defs @ ds) rest
    | _ -> (defs, body)
  in
  let defs, core = peel [] fi.fi_body in
  let cond, continue_updates, result_expr, polarity =
    match core with
    | Iter_if (c, Iter_continue us, Iter_result r) -> (c, us, r, true)
    | Iter_if (c, Iter_result r, Iter_continue us) -> (c, us, r, false)
    | _ ->
      reject
        "for-iter %s body must be a conditional with one iter arm and one \
         result arm"
        name
  in
  (match result_expr with
  | Var v when v = acc -> ()
  | _ -> reject "for-iter %s must terminate with the accumulated array" name);
  let last = loop_bound ~params ~counter ~polarity cond in
  if last < first then
    reject "for-iter %s performs no iterations (%d..%d)" name first last;
  (* Updates: counter := counter + 1 and acc := acc[counter: P]. *)
  let elem = ref None in
  List.iter
    (fun (lhs, upd) ->
      match upd with
      | Upd_expr rhs ->
        if lhs <> counter then
          reject "for-iter %s updates unexpected scalar %s" name lhs;
        (match rhs with
        | Binop (Add, Var v, Int_lit 1) when v = counter -> ()
        | Binop (Add, Int_lit 1, Var v) when v = counter -> ()
        | _ ->
          reject "for-iter %s: counter must advance by exactly 1" name)
      | Upd_append (arr, ix, e) ->
        if lhs <> acc || arr <> acc then
          reject "for-iter %s: append must target the array loop name %s"
            name acc;
        (match ix with
        | Ix_var (v, 0) when v = counter -> ()
        | _ ->
          reject "for-iter %s: append index must be the counter %s" name
            counter);
        if !elem <> None then
          reject "for-iter %s appends more than once per cycle" name;
        elem := Some e)
    continue_updates;
  let elem =
    match !elem with
    | Some e -> e
    | None -> reject "for-iter %s never appends to %s" name acc
  in
  if List.length continue_updates <> 2 then
    reject "for-iter %s must update exactly the counter and the array" name;
  (* The appended element: primitive on the counter; may reference the
     accumulator only as acc[i-1] (first-order recurrence). *)
  let select_ok arr offsets =
    if arr = acc then
      match offsets with
      | [ -1 ] -> ()
      | _ ->
        reject
          "for-iter %s may reference %s only as %s[%s-1] (first-order \
           recurrence)"
          name acc acc counter
  in
  let elem_with_defs = if defs = [] then elem else Let (defs, elem) in
  check_primitive_expr ~index_vars:[ counter ] ~scalars ~arrays:(acc :: arrays)
    ~select_ok elem_with_defs;
  {
    pi_name = name;
    pi_elt = elt;
    pi_counter = counter;
    pi_first = first;
    pi_last = last;
    pi_acc = acc;
    pi_init_index = init_index;
    pi_init = init_expr;
    pi_elem = elem_with_defs;
  }

(* ------------------------------------------------------------------ *)
(* Whole programs                                                       *)
(* ------------------------------------------------------------------ *)

let classify_program_checked prog =
  let pp_params =
    List.fold_left
      (fun acc (name, ce) -> (name, Typecheck.eval_const acc ce) :: acc)
      [] prog.prog_params
  in
  let pp_scalar_inputs =
    List.filter_map
      (fun inp ->
        match inp.in_type with
        | Scalar t -> Some (inp.in_name, t)
        | Array _ -> None)
      prog.prog_inputs
  in
  let const ce = Typecheck.eval_const pp_params ce in
  let pp_array_inputs =
    List.filter_map
      (fun inp ->
        match inp.in_type with
        | Array t ->
          Some
            ( inp.in_name,
              {
                sh_elt = t;
                sh_ranges =
                  List.map (fun (lo, hi) -> (const lo, const hi)) inp.in_ranges;
              } )
        | Scalar _ -> None)
      prog.prog_inputs
  in
  let scalars0 =
    List.map fst pp_params @ List.map fst pp_scalar_inputs
  in
  let blocks_rev, _shapes =
    List.fold_left
      (fun (blocks, shapes) blk ->
        let elt =
          match blk.blk_type with
          | Array t -> t
          | Scalar _ -> reject "block %s must define an array" blk.blk_name
        in
        let arrays = List.map fst shapes in
        let pb =
          match blk.blk_rhs with
          | Forall fa ->
            let pf =
              classify_forall ~params:pp_params ~scalars:scalars0 ~arrays
                ~name:blk.blk_name ~elt fa
            in
            Pb_forall pf
          | Foriter fi ->
            let pi =
              classify_foriter ~params:pp_params ~scalars:scalars0 ~arrays
                ~name:blk.blk_name ~elt fi
            in
            Pb_foriter pi
        in
        (pb :: blocks, (block_name pb, block_shape pb) :: shapes))
      ([], pp_array_inputs) prog.prog_blocks
  in
  {
    pp_params;
    pp_scalar_inputs;
    pp_array_inputs;
    pp_blocks = List.rev blocks_rev;
  }

let classify_program prog =
  try
    Typecheck.check_program prog;
    classify_program_checked prog
  with Typecheck.Error msg -> reject "type error: %s" msg
