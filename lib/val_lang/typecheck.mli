(** Static checking of Val-subset programs.

    Checks name scoping, operator typing (with implicit [integer]→[real]
    promotion, matching the paper's listings which write [T := [0: 0]] for a
    real array), array-select element types, and that every block references
    only inputs and previously defined blocks (so the flow dependency graph
    is acyclic by construction).

    Range resolution for compilation lives in {!Classify}; here only
    compile-time constants ([param]s) are evaluated. *)

exception Error of string

type scalar_env = (string * Ast.scalar_type) list
(** Scalar variables in scope (includes the index variables, of type
    integer). *)

type array_env = (string * Ast.scalar_type) list
(** Array variables in scope, mapped to their element type. *)

val eval_const : (string * int) list -> Ast.const_expr -> int
(** Evaluate a compile-time constant under parameter bindings.
    @raise Error on an unbound name. *)

val check_expr :
  scalars:scalar_env -> arrays:array_env -> Ast.expr -> Ast.scalar_type
(** Type of a (necessarily scalar-valued) expression.
    @raise Error on ill-typed or unbound constructs. *)

val check_program : Ast.program -> unit
(** Check a whole program. @raise Error *)
