open Dfg

(** A suite of classic scientific kernels (Livermore-loop style) expressed
    in the paper's pipe-structured Val class.

    The paper motivates its compilation scheme with "the main loops of
    several benchmark programs we have studied" but lists none; this suite
    is the substitution documented in DESIGN.md: the standard
    computational-physics fragments that fall squarely inside the
    primitive-forall / simple-for-iter class.

    Each kernel carries an independent OCaml reference implementation, so
    correctness is checked two ways: against the Val interpreter (shared
    oracle) and against hand-written OCaml (guards against a common-mode
    bug in frontend semantics). *)

type kernel = {
  name : string;
  description : string;
  blocks : int;                 (* pipe-structured blocks *)
  source : int -> string;       (* Val source for a size parameter *)
  scalar_inputs : (string * Value.t) list;
  inputs : int -> Random.State.t -> (string * Value.t list) list;
  reference : int -> (string * Value.t list) list -> float list;
      (* expected value of [output] given the same inputs *)
  output : string;              (* the kernel's final output stream *)
  predicted_interval : int -> float;
      (* steady-state initiation interval the theory predicts *)
}

val all : kernel list

val find : string -> kernel
(** @raise Not_found *)

val seeded_inputs : kernel -> int -> (string * Value.t list) list
(** [seeded_inputs k size]: one input wave per array input, drawn by
    [k.inputs size] from a PRNG seeded by the kernel's name.  Every
    builder of the same (kernel, size) pair gets bit-identical waves,
    which is what lets a served kernel run equal a standalone one. *)

val floats : (string * Value.t list) list -> string -> float list
(** Extract an input wave as floats. *)
