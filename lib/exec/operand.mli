(** Operands in unboxed slots, and the value rules on them.

    Both engines keep every operand they hold — a port's operand, a
    FIFO's items, a machine packet in flight or held for resending —
    in a slot set: per slot a tag byte ({!tag_int}, {!tag_real} or
    {!tag_bool}), an [int] (the integer, or [0]/[1] for a boolean) and
    a float (the real).  Storing into these arrays needs no allocation
    and no write barrier, where a [Dfg.Value.t] is a fresh block per
    result.

    A firing computes its result into a {e result register}, a slot
    set of length 1, and the engine copies slot 0 of it into each
    destination.  The register is a slot set and not a function's
    return value because a float passed to or returned from a call that
    is not inlined is boxed, and dune's dev profile ([-opaque]) inlines
    nothing across modules.

    The value rules below are [Dfg.Opcode]'s [apply_*] on slots: the
    same results, bit for bit, and the same [Dfg.Value.Type_clash]
    messages (the [properties] suite compares them).  The compiler's
    constant folding keeps [Opcode.apply_*] as the reference.

    [Dfg.Value.t] stays at the edges: {!get} boxes a slot, {!set}
    unboxes a value into one. *)

open Dfg

type t = private { tag : Bytes.t; int : int array; real : Float.Array.t }

val tag_int : char
val tag_real : char
val tag_bool : char

val create : int -> t
(** [create n]: [n] slots, each holding [Int 0]. *)

val get : t -> int -> Value.t
(** The slot's operand, boxed. *)

val set : t -> int -> Value.t -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src i dst j len], as [Array.blit] on each array. *)

(** {1 Value rules}

    Each reads its operands from slots of [s] and writes its result to
    slot 0 of the register [r]; nothing is written when it raises. *)

val arith : Opcode.arith -> t -> int -> int -> t -> unit
(** [arith op s a b r]: [Opcode.apply_arith op] of slots [a] and [b]. *)

val compare : Opcode.cmp -> t -> int -> int -> t -> unit
(** [Opcode.apply_cmp]. *)

val logic : Opcode.logic -> t -> int -> int -> t -> unit
(** [Opcode.apply_logic]. *)

val math : Opcode.math -> t -> int -> t -> unit
(** [Opcode.apply_math]. *)

val neg : t -> int -> t -> bool
(** A NEG cell's result; [false], with nothing written, on a boolean,
    which each engine reports its own way. *)

val not_ : t -> int -> t -> unit
(** A NOT cell's result. *)

val bool : t -> int -> bool
(** [Value.to_bool] of the slot: a gate's, switch's or merge's control.
    @raise Dfg.Value.Type_clash on a number. *)
