open Dfg
module A = Val_lang.Ast

(** Compilation of primitive expressions to pipelined instruction graphs
    (Theorem 1 of the paper).

    An expression over index variables [i, j, ...] is compiled to a
    subgraph producing one result packet per index point, streamed in
    row-major index order:

    - array selections [A[i+m]] become T-gates whose boolean control
      sequence selects the needed window out of the producer's stream and
      discards the rest (Figure 4); the gate's window start is recorded as
      its {e phase shift} for the balancer;
    - index variables become [Iota] sources;
    - conditionals follow Figure 5: every stream operand entering an arm
      passes through a [Switch] steered by the condition (sharing one
      switch per operand between the two arms), the arms compute only
      their own elements, and a [Merge] recombines them under the same
      control (the control path FIFO comes from balancing);
    - constant subexpressions fold at compile time and appear as immediate
      operand fields. *)

exception Unsupported of string

type rval =
  | Const of Value.t       (* compile-time constant *)
  | Stream of int * int    (* producer (node, out slot) *)

type array_src = {
  src_node : int;                (* producer of the full element stream *)
  src_ranges : (int * int) list; (* its index ranges, one per dimension *)
}

type block_ctx = {
  g : Graph.t;
  shifts : (int, int) Hashtbl.t;        (* node -> window phase shift *)
  windows : (string * int list * bool array option, rval) Hashtbl.t;
      (* selection gates, keyed by array, offsets, and the static arm mask
         under which the window was built (None = the full index range) *)
  iotas : (string, rval) Hashtbl.t;
  params : (string * Value.t) list;     (* params and scalar inputs *)
  arrays : (string * array_src) list;
  index_vars : (string * int * int) list; (* (var, lo, hi), outermost first *)
  points : (string * int) list array Lazy.t;
      (* index assignment per flat output position, row-major *)
}

type env
(** Scalar bindings plus the conditional-arm switching context. *)

val new_block_ctx :
  Graph.t ->
  params:(string * Value.t) list ->
  arrays:(string * array_src) list ->
  index_vars:(string * int * int) list ->
  block_ctx

val top_env : env
(** No bindings, no conditional layers. *)

val bind : env -> string -> rval -> env
(** Bind a scalar name (a [let] definition) at the current layer depth. *)

val compile_expr : block_ctx -> env -> A.expr -> rval
(** @raise Unsupported on constructs outside the compilable class (the
    classifier normally rejects these first). *)

val seed_window : block_ctx -> string -> int list -> rval -> unit
(** Pre-bind a selection [name[i+off]] to an existing stream — used by the
    for-iter compiler to route the accumulator reference [X[i-1]] to the
    feedback arc. *)

val connect_rval : block_ctx -> rval -> dst:int -> port:int -> unit
(** Wire an rval into an instruction port: arc for streams, immediate
    operand for constants.
    @raise Invalid_argument if the port is not declared [In_const] for a
    constant rval (build nodes with {!binding_for}). *)

val binding_for : rval -> Graph.binding
(** [In_arc] for streams, [In_const v] for constants. *)

val materialize : block_ctx -> rval -> int
(** Turn an rval into a stream node: streams pass through (inserting an
    [Id] when the producer is tapped on a non-zero slot); constants become
    a constant-operand T-gate paced by an always-true control source. *)
