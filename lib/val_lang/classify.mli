(** The paper's program classes (Sections 4-7), checked and normalized.

    - {e primitive expression} (Definition, §5): literals, scalar
      identifiers, operator applications, array selections [A[i+m]],
      [let-in] and [if-then-else] over primitive parts;
    - {e primitive forall} (Definition, §6): constant index range, defs and
      accumulation all primitive in the index variable;
    - {e primitive for-iter} (Definition, §7): integer counter [p..q],
      accumulating array initialized [X := [r: E]] with [r = p-1], each
      cycle appending [X := X[i: P]] where [P] is primitive in [i] and may
      reference [X] only as [X[i-1]] (first-order recurrence);
    - {e pipe-structured program} (Definition, §4): a sequence of such
      blocks, each consuming only inputs and earlier blocks, with fixed
      index ranges.

    Whether a primitive for-iter is {e simple} (its recurrence has a
    companion function) is decided by the compiler's recurrence analyzer,
    not here. *)

exception Not_in_class of string
(** Raised with an explanation when a program falls outside the class. *)

type array_shape = {
  sh_elt : Ast.scalar_type;
  sh_ranges : (int * int) list;  (* one [(lo, hi)] per dimension *)
}

type prim_forall = {
  pf_name : string;
  pf_elt : Ast.scalar_type;
  pf_ranges : (string * int * int) list;  (* index var, lo, hi *)
  pf_defs : Ast.def list;
  pf_body : Ast.expr;
}

type prim_foriter = {
  pi_name : string;
  pi_elt : Ast.scalar_type;
  pi_counter : string;
  pi_first : int;       (* first appended index, [p] *)
  pi_last : int;        (* last appended index, [q] *)
  pi_acc : string;
  pi_init_index : int;  (* [r]; the class requires [r = p-1] *)
  pi_init : Ast.expr;   (* initial element: primitive, no index variable *)
  pi_elem : Ast.expr;   (* appended element: primitive on the counter *)
}

type pipe_block = Pb_forall of prim_forall | Pb_foriter of prim_foriter

type pipe_program = {
  pp_params : (string * int) list;
  pp_scalar_inputs : (string * Ast.scalar_type) list;
  pp_array_inputs : (string * array_shape) list;
  pp_blocks : pipe_block list;
}

val block_name : pipe_block -> string

val block_shape : pipe_block -> array_shape
(** Index range(s) and element type of the array a block constructs. *)

val check_primitive_expr :
  index_vars:string list ->
  scalars:string list ->
  arrays:string list ->
  ?select_ok:(string -> int list -> unit) ->
  Ast.expr ->
  unit
(** Check the §5 definition.  [select_ok name offsets] may impose extra
    per-array constraints on selection offsets (used to restrict the
    for-iter accumulator to [X[i-1]]); it should raise {!Not_in_class} to
    reject. @raise Not_in_class *)

val is_primitive_expr :
  index_vars:string list ->
  scalars:string list ->
  arrays:string list ->
  Ast.expr ->
  bool

val array_references : Ast.expr -> (string * int list) list
(** All [(array, offsets)] selections occurring in an expression; offsets
    of constant subscripts are not included.  Multi-dimensional selections
    contribute their offset vector flattened per dimension. *)

val classify_program : Ast.program -> pipe_program
(** Full pipe-structured check + normalization.  Also verifies that every
    consumed window [A[i+m]], [i] in [lo, hi], fits inside the producer's
    declared range. @raise Not_in_class *)
