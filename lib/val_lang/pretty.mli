(** Pretty-printing of the Val subset back to concrete syntax.

    Output re-parses to an equal AST (up to redundant parentheses), which
    the round-trip property tests rely on. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_block : Format.formatter -> Ast.block -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
