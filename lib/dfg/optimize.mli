(** Dead-cell pruning and common-subexpression elimination, on a
    {!View.t}: each yields a mask or an id map, and {!View.merge} applies
    both at once.

    Cells with no path to any [Output] cell do nothing useful; worse, when
    fed only by free-running sources (control generators, index sources)
    they would fire forever.  {!live} marks the cells worth keeping.

    Two cells compute the same stream when they have the same opcode, the
    same immediate operands, and the same producers on the same ports —
    deterministic dataflow makes the rewrite sound, and the acknowledge
    discipline handles the increased fan-out of the surviving cell.  The
    compiler memoizes windows and index sources per block; CSE
    additionally merges duplicates {e across} blocks (identical control
    generators, selection gates over the same producer, repeated
    arithmetic).

    Cells inside feedback loops (strongly connected components), [Input]
    and [Output] cells, and [Sink]s are never merged.  Run before
    balancing: merged cells keep path lengths intact, and the balancer
    then sizes buffers for the deduplicated graph. *)

val live : View.t -> bool array
(** The cells from which an [Output] is reachable, and every [Input]
    (its packets arrive whether used or not; a [Sink] takes them). *)

val representatives : View.t -> live:bool array -> int array
(** Each cell's representative among the live cells: the first cell of
    its class in a topological order of the live cells outside rings
    (itself when it is not merged). *)

val cse_stats : Graph.t -> int
(** Number of cells CSE would remove (for reporting). *)
