(** Structural analyses over instruction graphs.

    Arc weights: a normal cell contributes delay 1 to every path through
    it; a [Fifo k] cell contributes [k] (it stands for a chain of [k]
    identity cells — see {!Macro.expand_fifos}). *)

val successors : Graph.t -> int -> int list
(** Distinct successor node ids over all output slots. *)

val topological_order : Graph.t -> int list option
(** All node ids in topological order, or [None] if the graph has a
    cycle. *)

val cycles : Graph.t -> int list list
(** Strongly connected components with more than one node, or single nodes
    with self arcs — the feedback loops of for-iter implementations.  Empty
    for acyclic graphs. *)

val node_delay : Graph.node -> int
(** 1 for ordinary cells, [k] for [Fifo k]. *)

val longest_path_from_sources : Graph.t -> int array option
(** For each node, the maximum total delay over paths from any source
    (node with no arc predecessors) to just {e before} the node; [None]
    for cyclic graphs. *)

val strict_balance_check : Graph.t -> (int array, string) result
(** The paper's full-pipelining structural condition for acyclic graphs:
    "each path through the graph passes through exactly the same number of
    instruction cells".  Checks that a depth assignment exists in which
    every arc [u -> v] satisfies [depth v = depth u + delay u], with all
    [Input] nodes at depth 0 ([Bool_source] nodes float).  Returns the
    depths, or a description of the first inconsistent arc. *)
