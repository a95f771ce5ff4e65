(** Machine-level dataflow programs as instruction graphs.

    "A machine level data flow program, regarded as a collection of
    instruction cells, is essentially a directed graph, with nodes
    corresponding to instructions and an arc for each instruction
    destination field" (Section 2).  A single arc stands for both the
    forward result path and the reverse acknowledge path (Section 3).

    Nodes are identified by dense integer ids.  Each input port is either
    an arc endpoint (optionally preloaded with an initial token, which
    models operand values set at program-load time), or an immediate
    constant operand (a field of the instruction cell, always present and
    never acknowledged). *)

type binding =
  | In_arc                        (* receives packets over an arc *)
  | In_arc_init of Value.t        (* arc port preloaded at load time *)
  | In_const of Value.t           (* immediate constant operand *)

type endpoint = { ep_node : int; ep_port : int }

type node = private {
  id : int;
  op : Opcode.t;
  label : string;
  inputs : binding array;                 (* length [Opcode.arity op] *)
  mutable dests : endpoint list array;    (* length [Opcode.out_slots op] *)
}

type t

val create : unit -> t

val add : t -> ?label:string -> Opcode.t -> binding array -> int
(** Add an instruction cell; returns its id.
    @raise Invalid_argument if the binding count differs from the opcode
    arity, or if a zero-arity position is given [In_const]. *)

val connect : t -> src:int -> dst:int -> port:int -> unit
(** Add a destination [dst.port] to output slot 0 of [src].
    @raise Invalid_argument on bad ids, ports, or when the target port is
    an [In_const]. *)

val connect_slot : t -> src:int -> slot:int -> dst:int -> port:int -> unit
(** As {!connect} for a specific output slot (needed for [Switch]). *)

val node_count : t -> int

val node : t -> int -> node
(** @raise Invalid_argument on a bad id. *)

val iter_nodes : t -> (node -> unit) -> unit

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val producers : t -> (int * int) array array array
(** [producers g .(v).(port)] lists the [(src, slot)] pairs feeding each
    arc port (a validated graph has exactly one per arc port). *)

val inputs : t -> (string * int) list
(** Input stream names with their node ids, in insertion order. *)

val outputs : t -> (string * int) list

val validate : t -> (unit, string list) result
(** Structural checks: every arc port fed by exactly one producer; every
    output slot has at least one destination; no cell whose ports are all
    constants (it would fire unboundedly); distinct input/output stream
    names. *)

val validate_exn : t -> unit
(** @raise Invalid_argument listing all validation errors. *)

val opcode_census : t -> (string * int) list
(** Count of nodes per opcode name, sorted by name — the "machine program
    size" statistic used in benches. *)

val arc_count : t -> int
