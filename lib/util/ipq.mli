(** Allocation-free binary-heap priority queue over [int] payloads.

    Both engines keep their far-off events here: the graph engine
    ([Sim.Engine]) its fault-delayed wakes as cell ids, the machine's
    timing wheel ([Machine.Machine_engine.Wheel]) the events due past
    its horizon as event-slab slots.  Three parallel [int] arrays
    (priority, push stamp, payload) double when full, so steady-state
    push/pop allocates nothing.  Priorities are simulation timestamps,
    lower pops first.

    Equal priorities pop in push order, the machine's order rule (what
    falls due at one time applies in the order it was queued): every
    push takes the next stamp, and the heap orders entries by
    (priority, stamp).

    Every heap index, into any of the three arrays, is below the entry
    count, which never exceeds the arrays' length, so the heap indexes
    them without bounds checks. *)

type t

val create : ?capacity:int -> unit -> t

val push : t -> int -> int -> unit
(** [push q prio x] inserts payload [x] with priority [prio]. *)

val peek_priority : t -> int
(** Minimum priority, or [-1] when empty (timestamps are
    non-negative). *)

val peek_payload : t -> int
(** The payload {!pop_payload} would return, left in place.
    @raise Invalid_argument when empty. *)

val pop_payload : t -> int
(** Remove and return the first-pushed payload of minimum priority.
    @raise Invalid_argument when empty. *)

val clear : t -> unit
(** Remove every entry. *)

val to_array : t -> (int * int) array
(** Every [(priority, payload)], in the order they would pop. *)
