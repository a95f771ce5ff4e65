open Ast

let real_literal f =
  let s = Printf.sprintf "%.12g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
  else s ^ "."

let rec pp_cexpr ppf = function
  | C_int i -> Format.fprintf ppf "%d" i
  | C_name n -> Format.fprintf ppf "%s" n
  | C_add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_cexpr a pp_cexpr b
  | C_sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_cexpr a pp_cexpr b
  | C_mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_cexpr a pp_cexpr b

let pp_index ppf = function
  | Ix_var (v, 0) -> Format.fprintf ppf "%s" v
  | Ix_var (v, k) when k > 0 -> Format.fprintf ppf "%s+%d" v k
  | Ix_var (v, k) -> Format.fprintf ppf "%s-%d" v (-k)
  | Ix_const ce -> pp_cexpr ppf ce

let pp_type ppf = function
  | Scalar st -> Format.fprintf ppf "%s" (scalar_type_name st)
  | Array st -> Format.fprintf ppf "array[%s]" (scalar_type_name st)

let rec pp_expr ppf = function
  | Int_lit i -> Format.fprintf ppf "%d" i
  | Real_lit f -> Format.fprintf ppf "%s" (real_literal f)
  | Bool_lit b -> Format.fprintf ppf "%s" (if b then "true" else "false")
  | Var v -> Format.fprintf ppf "%s" v
  | Binop ((Min | Max) as op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)"
      (match op with Min -> "min" | _ -> "max")
      pp_expr a pp_expr b
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Unop (Fn f, a) ->
    Format.fprintf ppf "%s(%a)" (math_fn_name f) pp_expr a
  | Unop (op, a) -> Format.fprintf ppf "(%s%a)" (unop_name op) pp_expr a
  | Select (name, ixs) ->
    Format.fprintf ppf "%s[%a]" name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_index)
      ixs
  | Let (defs, body) ->
    Format.fprintf ppf "@[<v 2>let %a@ in %a endlet@]" pp_defs defs pp_expr
      body
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a@ then %a@ else %a@ endif@]" pp_expr c
      pp_expr t pp_expr e

and pp_def ppf { def_name; def_type; def_rhs } =
  match def_type with
  | Some ty ->
    Format.fprintf ppf "%s : %a := %a" def_name pp_type ty pp_expr def_rhs
  | None -> Format.fprintf ppf "%s := %a" def_name pp_expr def_rhs

and pp_defs ppf defs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
    pp_def ppf defs

let pp_range ppf { rng_var; rng_lo; rng_hi } =
  Format.fprintf ppf "%s in [%a, %a]" rng_var pp_cexpr rng_lo pp_cexpr rng_hi

let pp_forall ppf fa =
  Format.fprintf ppf "@[<v 2>forall %a@ "
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_range)
    fa.fa_ranges;
  if fa.fa_defs <> [] then Format.fprintf ppf "%a;@ " pp_defs fa.fa_defs;
  Format.fprintf ppf "construct@ %a@ endall@]" pp_expr fa.fa_body

let pp_loop_init ppf = function
  | Init_scalar (name, ty, e) ->
    (match ty with
    | Some ty ->
      Format.fprintf ppf "%s : %a := %a" name pp_type ty pp_expr e
    | None -> Format.fprintf ppf "%s := %a" name pp_expr e)
  | Init_array (name, ty, r, e) ->
    (match ty with
    | Some ty ->
      Format.fprintf ppf "%s : %a := [%a: %a]" name pp_type ty pp_cexpr r
        pp_expr e
    | None -> Format.fprintf ppf "%s := [%a: %a]" name pp_cexpr r pp_expr e)

let rec pp_iter_body ppf = function
  | Iter_let (defs, rest) ->
    Format.fprintf ppf "@[<v 2>let %a@ in %a endlet@]" pp_defs defs
      pp_iter_body rest
  | Iter_if (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a@ then %a@ else %a@ endif@]" pp_expr c
      pp_iter_body t pp_iter_body e
  | Iter_continue updates ->
    let pp_update ppf (name, upd) =
      match upd with
      | Upd_expr e -> Format.fprintf ppf "%s := %a" name pp_expr e
      | Upd_append (arr, ix, e) ->
        Format.fprintf ppf "%s := %s[%a: %a]" name arr pp_index ix pp_expr e
    in
    Format.fprintf ppf "iter %a enditer"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_update)
      updates
  | Iter_result e -> pp_expr ppf e

let pp_foriter ppf fi =
  Format.fprintf ppf "@[<v 2>for %a@ do@ %a@ endfor@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_loop_init)
    fi.fi_inits pp_iter_body fi.fi_body

let pp_block ppf blk =
  Format.fprintf ppf "@[<v>%s : %a :=@ %a;@]" blk.blk_name pp_type
    blk.blk_type
    (fun ppf -> function
      | Forall fa -> pp_forall ppf fa
      | Foriter fi -> pp_foriter ppf fi)
    blk.blk_rhs

let pp_program ppf prog =
  List.iter
    (fun (name, ce) ->
      Format.fprintf ppf "param %s = %a;@\n" name pp_cexpr ce)
    prog.prog_params;
  List.iter
    (fun inp ->
      Format.fprintf ppf "input %s : %a" inp.in_name pp_type inp.in_type;
      List.iter
        (fun (lo, hi) ->
          Format.fprintf ppf " [%a, %a]" pp_cexpr lo pp_cexpr hi)
        inp.in_ranges;
      Format.fprintf ppf ";@\n")
    prog.prog_inputs;
  List.iter (fun blk -> Format.fprintf ppf "%a@\n@\n" pp_block blk)
    prog.prog_blocks

let to_string pp x = Format.asprintf "%a" pp x
let expr_to_string = to_string pp_expr
let program_to_string = to_string pp_program
