(** Allocation-free binary-heap priority queue over [int] payloads.

    The graph engine ([Sim.Engine]) keeps its fault-delayed wakes here
    as cell ids; the queue keeps them in two parallel [int] arrays so
    steady-state push/pop allocates nothing (the arrays double on
    overflow, amortized).  Priorities are simulation timestamps, lower
    pops first.  The machine engine's events are not kept here: its
    timing wheel ([Machine.Machine_engine.Wheel]) pops equal-time
    events in the order they were queued, and its snapshots list them
    in that order.

    Equal-priority entries pop in an order fixed by the heap layout:
    sifting moves an entry only past a strictly smaller priority, and
    the left child wins a tie between children.  The same sequence of
    pushes and pops therefore always yields the same pop order.

    Internally every heap index is below the entry count, which never
    exceeds the arrays' length, so push, pop and peek index the arrays
    without bounds checks.  The sift rules, and hence the pop order,
    are the same as with checked indexing. *)

type t

val create : ?capacity:int -> unit -> t

val push : t -> int -> int -> unit
(** [push q prio x] inserts payload [x] with priority [prio]. *)

val peek_priority : t -> int
(** Minimum priority, or [-1] when empty (timestamps are
    non-negative). *)

val pop_payload : t -> int
(** Remove and return a minimum-priority payload.
    @raise Invalid_argument when empty. *)
