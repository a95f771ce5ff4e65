module A = Val_lang.Ast

type analysis =
  | Affine of { coef : A.expr; shift : A.expr }
  | Not_affine of string

(* ------------------------------------------------------------------ *)
(* let inlining                                                         *)
(* ------------------------------------------------------------------ *)

let rec subst map expr =
  match expr with
  | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ -> expr
  | A.Var name -> (
    match List.assoc_opt name map with Some e -> e | None -> expr)
  | A.Binop (op, a, b) -> A.Binop (op, subst map a, subst map b)
  | A.Unop (op, a) -> A.Unop (op, subst map a)
  | A.Select _ -> expr
  | A.Let (defs, body) ->
    (* inner definitions shadow: remove them from the substitution as we
       pass each one *)
    let map, defs =
      List.fold_left
        (fun (map, defs) d ->
          let d = { d with A.def_rhs = subst map d.A.def_rhs } in
          (List.remove_assoc d.A.def_name map, d :: defs))
        (map, []) defs
    in
    A.Let (List.rev defs, subst map body)
  | A.If (c, t, e) -> A.If (subst map c, subst map t, subst map e)

let rec inline_lets expr =
  match expr with
  | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ | A.Var _ | A.Select _ -> expr
  | A.Binop (op, a, b) -> A.Binop (op, inline_lets a, inline_lets b)
  | A.Unop (op, a) -> A.Unop (op, inline_lets a)
  | A.If (c, t, e) -> A.If (inline_lets c, inline_lets t, inline_lets e)
  | A.Let (defs, body) ->
    let map =
      List.fold_left
        (fun map d ->
          (d.A.def_name, subst map (inline_lets d.A.def_rhs)) :: map)
        [] defs
    in
    subst map (inline_lets body)

(* Whether the expression references [acc[...]]. *)
let contains_acc ~acc expr =
  let found = ref false in
  let rec go = function
    | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ | A.Var _ -> ()
    | A.Binop (_, a, b) ->
      go a;
      go b
    | A.Unop (_, a) -> go a
    | A.Select (name, _) -> if name = acc then found := true
    | A.Let (defs, body) ->
      List.iter (fun d -> go d.A.def_rhs) defs;
      go body
    | A.If (c, t, e) ->
      go c;
      go t;
      go e
  in
  go expr;
  !found

(* ------------------------------------------------------------------ *)
(* Simplifying expression constructors                                  *)
(* ------------------------------------------------------------------ *)

let is_zero = function
  | A.Int_lit 0 -> true
  | A.Real_lit f -> f = 0.0
  | _ -> false

let is_one = function
  | A.Int_lit 1 -> true
  | A.Real_lit f -> f = 1.0
  | _ -> false

let eadd a b =
  if is_zero a then b else if is_zero b then a else A.Binop (A.Add, a, b)

let esub a b = if is_zero b then a else A.Binop (A.Sub, a, b)

let emul a b =
  if is_one a then b
  else if is_one b then a
  else if is_zero a then a
  else if is_zero b then b
  else A.Binop (A.Mul, a, b)

let ediv a b = if is_one b then a else A.Binop (A.Div, a, b)

let eneg = function
  | A.Int_lit i -> A.Int_lit (-i)
  | A.Real_lit f -> A.Real_lit (-.f)
  | e -> A.Unop (A.Neg, e)

(* ------------------------------------------------------------------ *)
(* Affine decomposition                                                 *)
(* ------------------------------------------------------------------ *)

exception Refused of string

let analyze ~acc ~elt expr =
  let zero =
    match elt with A.Tint -> A.Int_lit 0 | _ -> A.Real_lit 0.0
  in
  let one = match elt with A.Tint -> A.Int_lit 1 | _ -> A.Real_lit 1.0 in
  let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt in
  let add_coef a b =
    match (a, b) with
    | None, c | c, None -> c
    | Some x, Some y -> Some (eadd x y)
  in
  let sub_coef a b =
    match (a, b) with
    | c, None -> c
    | None, Some y -> Some (eneg y)
    | Some x, Some y -> Some (esub x y)
  in
  (* returns (coefficient of x, constant part); coefficient None = 0 *)
  let rec go expr =
    if not (contains_acc ~acc expr) then (None, expr)
    else
      match expr with
      | A.Select (name, indices) -> (
        (* [contains_acc] was true, so this must be the accumulator *)
        assert (name = acc);
        match indices with
        | [ A.Ix_var (_, -1) ] -> (Some one, zero)
        | _ -> refuse "accumulator referenced other than as %s[i-1]" acc)
      | A.Binop (A.Add, a, b) ->
        let ca, qa = go a and cb, qb = go b in
        (add_coef ca cb, eadd qa qb)
      | A.Binop (A.Sub, a, b) ->
        let ca, qa = go a and cb, qb = go b in
        (sub_coef ca cb, esub qa qb)
      | A.Binop (A.Mul, a, b) -> (
        let ca, qa = go a and cb, qb = go b in
        match (ca, cb) with
        | Some _, Some _ ->
          refuse "recurrence is quadratic in %s[i-1]" acc
        | Some c, None -> (Some (emul c qb), emul qa qb)
        | None, Some c -> (Some (emul qa c), emul qa qb)
        | None, None -> (None, emul qa qb))
      | A.Binop (A.Div, a, b) ->
        if contains_acc ~acc b then
          refuse "division by an expression containing %s[i-1]" acc
        else
          let ca, qa = go a in
          (Option.map (fun c -> ediv c b) ca, ediv qa b)
      | A.Unop (A.Neg, a) ->
        let c, q = go a in
        (Option.map eneg c, eneg q)
      | A.Binop (op, _, _) ->
        refuse "operator %s over %s[i-1] has no known companion function"
          (A.binop_name op) acc
      | A.Unop (A.Fn f, _) ->
        refuse "%s over %s[i-1] has no known companion function"
          (A.math_fn_name f) acc
      | A.Unop (A.Not, _) | A.If _ ->
        refuse
          "conditional or boolean dependence on %s[i-1]: no companion \
           function"
          acc
      | A.Let _ -> assert false (* inlined below *)
      | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ | A.Var _ -> (None, expr)
  in
  match go (inline_lets expr) with
  | None, q ->
    (* no actual recurrence: x_i independent of x_{i-1} *)
    Affine { coef = zero; shift = q }
  | Some c, q -> Affine { coef = c; shift = q }
  | exception Refused why -> Not_affine why

let companion_apply (p1, q1) (p2, q2) = (p1 *. p2, (p1 *. q2) +. q1)
