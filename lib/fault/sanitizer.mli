(** Online dataflow sanitizer: shadow bookkeeping of the acknowledge
    discipline, independent of the engine's own state.

    The engines call the [on_*] hooks at every event; the sanitizer
    maintains its own occupancy bit per arc port and its own
    outstanding-acknowledge counter per producer, and records a
    {!Violation.t} whenever the protocol is breached.  Because the
    sanitizer only observes, a clean run is bit-identical with the
    sanitizer on or off.

    Each hook returns the violation it recorded (if any) so the engine
    can surface it immediately (e.g. as a trace event).  When a
    {!Violation.fatal} violation is recorded, {!tripped} becomes true
    and the engine halts the run — its state is no longer trustworthy.

    The {!null} sanitizer is disabled: every hook is a no-op costing one
    branch, mirroring {!Obs.Tracer.null}. *)

type t

val null : t
(** The disabled checker every engine uses by default. *)

val create : ?limit:int -> Dfg.Graph.t -> t
(** A checker for one run of [g].  Initial-token ports start occupied
    and their producers start owing an acknowledge, mirroring program
    load.  At most [limit] violations are retained (default 64). *)

val enabled : t -> bool

(** {2 Snapshot / restore}

    Engines that checkpoint and roll back (crash recovery) must snapshot
    the shadow state together with the machine state, or replayed events
    would double-count against the accounting. *)

type snapshot = {
  sn_occupied : bool array array;
  sn_owed : int array;
  sn_last_out : int array;
  sn_violations : Violation.t list;  (** oldest first *)
  sn_count : int;
  sn_tripped : bool;
}

val snapshot : t -> snapshot option
(** Deep copy of the shadow state; [None] for the {!null} sanitizer. *)

val misfit : t -> snapshot option -> string option
(** Why the snapshot cannot be restored into this sanitizer — presence
    disagrees, or an array's shape is not the graph's — or [None]. *)

val restore : t -> snapshot option -> unit
(** Overwrite the shadow state with a snapshot taken from a sanitizer of
    the same graph.
    @raise Invalid_argument, before writing anything, if {!misfit}
    finds a reason. *)

val tripped : t -> bool
(** A fatal violation has been recorded; the engine must stop. *)

val violations : t -> Violation.t list
(** Violations recorded so far, oldest first. *)

(** {2 Engine hooks} *)

val on_deliver :
  t -> time:int -> src:int -> dst:int -> port:int -> Violation.t option
(** A result packet arrived at [dst.port].  Records [Arc_capacity] if
    the shadow port is already occupied; marks it occupied. *)

val on_consume : t -> time:int -> node:int -> port:int -> Violation.t option
(** [node] consumed the operand on [port] (arc ports only).  Records
    [Empty_consume] if the shadow port is empty; clears it. *)

val on_send : t -> time:int -> node:int -> count:int -> unit
(** [node] fired and sent [count] result packets: it is now owed [count]
    more acknowledges. *)

val on_ack : t -> time:int -> dst:int -> Violation.t option
(** An acknowledge arrived at producer [dst].  Records [Ack_underflow]
    if none was outstanding. *)

val on_output : t -> time:int -> node:int -> Violation.t option
(** Output cell [node] collected a packet at [time].  Records
    [Nonmonotone_output] if [time] precedes the previous arrival. *)

val on_quiescence :
  t -> time:int -> held:(int -> int -> bool) -> Violation.t list
(** End-of-run conservation checks, called only on a quiescent,
    untripped run.  [held node port] is the engine's view of operand
    occupancy.  Records [Ack_conservation] for every producer whose
    outstanding acknowledges differ from its tokens still resident in
    consumer ports, and [Token_conservation] wherever the engine's
    occupancy disagrees with the shadow occupancy. *)
