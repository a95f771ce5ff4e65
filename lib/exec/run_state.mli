(** The dynamic state of one run, in the arena's flat layout.

    Both engines fire cells by the paper's one rule over one kind of
    state — an operand slot per input port and a count of owed
    acknowledges per cell — and differ only in timing.  This module
    holds that state, shared by {!Sim.Engine} and
    {!Machine.Machine_engine}, and the code built on it: creating it at
    program load, the sanitizer's quiescence [held] check, stall
    reports, and assembling outputs.  The firing rules stay in each
    engine's own module (docs/ENGINE.md says why).

    Every array is indexed by the {!Arena}'s global port or cell
    numbers.  The arena itself is not part of the state: it is static,
    and the functions below take it alongside. *)

open Dfg

type t = {
  present : bool array;  (** per port: the operand slot is full *)
  value : Value.t array;
      (** per port: the operand, meaningful only while [present] *)
  pending_acks : int array;  (** per cell: acknowledges still owed *)
  stream : Value.t array array;  (** per cell: an [Input]'s packets *)
  cursor : int array;
      (** per cell: packets an [Input], [Iota] or [Bool_source] has sent *)
  fifo_buf : Value.t array array;  (** per cell: a [Fifo]'s ring buffer *)
  fifo_head : int array;  (** per cell: ring index of the oldest item *)
  fifo_len : int array;  (** per cell: items queued *)
  collected : (int * Value.t) list array;
      (** per cell: an [Output]'s [(time, value)] packets, newest first *)
}

val create :
  who:string -> Arena.t -> inputs:(string * Value.t list) list -> t
(** Program-load state: const ports full for the whole run, init ports
    full with their producer owing an acknowledge, each [Input] cell
    holding its stream from [inputs], every FIFO empty.
    @raise Invalid_argument naming [who] for an input cell with no feed
    ({!Df_util.Conventions.lookup_feed}) or a feed the graph has no
    input for ("unknown input stream"). *)

val held : Arena.t -> t -> int -> int -> bool
(** [held a st cell port]: the cell's (non-const) input port holds an
    operand — the {!Fault.Sanitizer.on_quiescence} check. *)

val stall :
  ?dead_pes:int list ->
  Obs.Tracer.t ->
  track:(int -> int) ->
  Arena.t ->
  t ->
  time:int ->
  reason:Fault.Stall_report.reason ->
  Fault.Stall_report.t option
(** The stall report of a run that ended with work undone: every cell
    that still holds an operand, queues FIFO items, has input left to
    send or is owed acknowledges, in cell order, with the wait-for
    edges that explain it.  [None] when no cell is blocked.  Each
    blocked cell is also traced as a {!Obs.Event.Stall} on track
    [track cell]. *)

val outputs : Arena.t -> t -> (string * (int * Value.t) list) list
(** Each output stream's [(time, value)] packets in arrival order. *)

val snapshot : t -> t
(** A deep copy in canonical form, so equal states compare equal and a
    snapshot survives serialization exactly: value slots of empty ports
    hold {!Arena.dummy_value}, each FIFO ring is trimmed to its items
    starting at index 0, and [stream] is [[||]] — input streams are the
    run's inputs, rebuilt by {!create}, not state. *)

val restore : t -> t -> unit
(** [restore st snap] overwrites [st] with the {!snapshot} [snap],
    keeping [st]'s streams and FIFO capacities.  It checks nothing:
    [snap]'s arrays must have [st]'s lengths and its FIFOs fit their
    capacities, which [Machine_engine.restore], its one caller, checks
    first. *)
