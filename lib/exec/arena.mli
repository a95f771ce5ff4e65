(** Flat-arena lowering of an instruction graph.

    [build] lowers a validated {!Dfg.Graph.t} once into int-indexed
    arrays — cells, input ports, output slots and destination lists all
    numbered globally and stored contiguously — which is the layout both
    engines' hot loops index into.  The arena is purely static: dynamic
    run state (operand presence, pending acknowledges, FIFO contents)
    is a {!Run_state.t}, parallel arrays of the same dimensions that
    both engines share.

    Numbering: cell [c]'s local input port [k] is global port
    [port_base.(c) + k]; its output slot [s] is global slot
    [slot_base.(c) + s]; slot [s]'s destinations are
    [dest_port.(dest_base.(s))] through
    [dest_port.(dest_base.(s+1) - 1)], each a global port.

    See [docs/ENGINE.md] for the full layout. *)

open Dfg

val kind_arc : int
val kind_init : int
val kind_const : int

type t = {
  graph : Graph.t;  (** the graph this arena was lowered from *)
  n : int;  (** cell count *)
  ops : Opcode.t array;
  labels : string array;
  n_ports : int;
  port_base : int array;  (** length [n+1]; prefix sums of arity *)
  port_cell : int array;  (** owning cell per global port *)
  port_sub : int array;  (** local port index per global port *)
  port_kind : int array;  (** {!kind_arc} / {!kind_init} / {!kind_const} *)
  port_value : Value.t array;
      (** init/const payload per port; {!dummy_value} for plain arcs *)
  port_producer : int array;  (** producing cell per arc port, or -1 *)
  slot_base : int array;  (** length [n+1]; prefix sums of out_slots *)
  dest_base : int array;  (** length [slot_base.(n)+1] *)
  dest_port : int array;  (** global destination port per dest entry *)
  inputs : (string * int) list;
  outputs : (string * int) list;
}

val dummy_value : Value.t
(** Placeholder for value slots that hold no real payload; never
    observable through the engine APIs. *)

val is_arc : t -> int -> bool
(** [is_arc a p]: [p] is a global port of [a] that a cell produces
    into, so a packet and its acknowledge can travel it — [p] lies in
    [[0, n_ports)] and [port_producer.(p) >= 0].  The machine engine
    names each queued event by such a port. *)

val refires : t -> int -> bool
(** [refires a cell]: a cell that just fired can fire again at the same
    time, with no new arrival.  A firing empties every arc port it
    consumes and nothing arrives within a time step, so only a FIFO (an
    accept into an empty buffer lets it emit) and a cell whose firing
    may have consumed no arc operand (no arc input port, or a merge
    whose control port is a constant) can.  Both engines retry a cell
    that fired only when this holds and it owes no acknowledge. *)

val build : Graph.t -> t
(** @raise Invalid_argument on an invalid graph (same checks as
    {!Dfg.Graph.validate}). *)
