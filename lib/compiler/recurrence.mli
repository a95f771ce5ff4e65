module A = Val_lang.Ast

(** Symbolic analysis of first-order recurrences (Section 7).

    A primitive for-iter defines [x_i = F(a_i, x_{i-1})].  When the body is
    {e affine} in the previous element,

    [x_i = P_i * x_{i-1} + Q_i],

    the recurrence has the companion function
    [G((p1,q1),(p2,q2)) = (p1*p2, p1*q2 + q1)] (with
    [F(a, F(b, x)) = F(G(a,b), x)]), which is associative — the key fact
    behind the paper's companion pipeline (Figure 8) and the log-depth
    composition tree. *)

type analysis =
  | Affine of { coef : A.expr; shift : A.expr }
      (** [x_i = coef * x_{i-1} + shift]; both expressions are primitive in
          the counter and do not reference the accumulator. *)
  | Not_affine of string
      (** why no companion function was found (the paper: "there are many
          recurrence functions for which no companion function is known");
          such loops still compile with Todd's direct scheme. *)

val analyze :
  acc:string -> elt:A.scalar_type -> A.expr -> analysis
(** Decompose the appended-element expression.  [let] definitions are
    inlined first (the expression is applicative, so substitution is
    semantics-preserving). *)

val inline_lets : A.expr -> A.expr
(** Capture-avoiding inlining of [let] definitions (exposed for tests). *)

val subst : (string * A.expr) list -> A.expr -> A.expr
(** Capture-aware substitution of free variables (inner [let] definitions
    shadow).  Used by the compiler to resolve index-only definitions when
    deciding whether a condition is static. *)

val companion_apply :
  (float * float) -> (float * float) -> float * float
(** The concrete companion function [G] on coefficient pairs — used by
    tests to check associativity and by the benchmark's log-depth tree. *)

