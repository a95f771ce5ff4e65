(** Allocation-free binary-heap priority queue over [int] payloads.

    The flat-arena engines encode events as integers (see [Sim.Engine]
    and [Machine.Machine_engine]); this queue keeps them in two parallel
    [int] arrays so steady-state push/pop allocates nothing (the arrays
    double on overflow, amortized).  Priorities are simulation
    timestamps, lower pops first.

    Equal-priority entries pop in an order fixed by the heap layout:
    sifting moves an entry only past a strictly smaller priority, and
    the left child wins a tie between children.  The same sequence of
    pushes and pops therefore always yields the same layout and the
    same pop order, and {!to_array} / {!of_array} carry that layout
    through a snapshot.

    Internally every heap index is below the entry count, which never
    exceeds the arrays' length, so push, pop and peek index the arrays
    without bounds checks.  The sift rules, and hence the pop order,
    are the same as with checked indexing. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> int -> int -> unit
(** [push q prio x] inserts payload [x] with priority [prio]. *)

val peek_priority : t -> int
(** Minimum priority, or [-1] when empty (timestamps are
    non-negative). *)

val peek_payload : t -> int
(** The payload {!pop_payload} would return, left in place.
    @raise Invalid_argument when empty. *)

val pop_payload : t -> int
(** Remove and return a minimum-priority payload.
    @raise Invalid_argument when empty. *)

val drop_min : t -> unit
(** Remove the minimum entry (no-op on an empty queue). *)

val clear : t -> unit

(** {2 Snapshot support} *)

val to_array : t -> (int * int) array
(** The heap as [(priority, payload)] pairs in index order. *)

val of_array : (int * int) array -> t
(** Rebuild a queue with exactly the given heap layout, so it pops in
    the same order as the queue {!to_array} was taken from.  The input
    must be a valid min-heap in array form, i.e. come from
    {!to_array}. *)
