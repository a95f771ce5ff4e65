(** Reference interpreter for the Val subset.

    This is the semantic oracle: every compiled-and-simulated program must
    produce exactly the values this interpreter produces.  It executes
    [forall] by independent element evaluation and [for-iter] by literal
    iteration, with no pipelining — functional semantics only. *)

exception Error of string

type value =
  | VInt of int
  | VReal of float
  | VBool of bool
  | VArray of varray
  | VGrid of vgrid  (* 2-D array, for the paper's multi-dimension remark *)

and varray = { lo : int; elts : value array }

and vgrid = { lo_i : int; lo_j : int; rows : value array array }

val value_equal : ?eps:float -> value -> value -> bool
(** Structural equality with tolerance [eps] (default [1e-9]) on reals. *)

val pp_value : Format.formatter -> value -> unit

val to_real : value -> float
(** Numeric coercion. @raise Error on non-numeric values. *)

val varray_of_floats : lo:int -> float list -> value
val floats_of_varray : value -> float list
(** @raise Error if the value is not a 1-D numeric array. *)

type env
(** Evaluation environment: scalar and array bindings. *)

val env_of_bindings : (string * value) list -> env

val eval_expr : env -> Ast.expr -> value
(** Evaluate a scalar expression. @raise Error *)

val eval_program :
  inputs:(string * value) list -> Ast.program -> (string * value) list
(** Evaluate all blocks in order; returns every block's value (last entry is
    the program result).  [param] declarations are evaluated first and enter
    scope as integer scalars. @raise Error *)
