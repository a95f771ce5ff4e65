(** Structural analyses over instruction graphs.

    Arc weights: a normal cell contributes delay 1 to every path through
    it; a [Fifo k] cell contributes [k] (it stands for a chain of [k]
    identity cells — see {!Macro.expand_fifos}).

    {!order} and {!rings} run on a {!View.t}, as the compile passes do;
    the graph functions freeze their graph and run the same code. *)

val successors : Graph.t -> int -> int list
(** Distinct successor node ids over all output slots, ascending. *)

val kahn : int array -> (int -> (int -> unit) -> unit) -> int array
(** [kahn indeg iter_succ]: Kahn's order of the cells [c] with
    [indeg.(c) >= 0], which counts the arcs into [c] that [iter_succ]
    releases ([iter_succ c f] calls [f] on each successor arc of [c]).
    The queue is seeded in ascending order.  Consumes [indeg]; shorter
    than the cells counted when they contain a cycle. *)

val order : View.t -> keep:bool array -> int array
(** Kahn's order of the kept cells: each kept cell follows its kept
    predecessors, the queue is seeded in ascending id order and a cell's
    distinct successors are released in ascending order.  Shorter than
    the kept cells when they contain a cycle. *)

type rings = {
  ring_of : int array;    (* ring index of each cell, -1 outside rings *)
  ring_base : int array;  (* ring k: members.(ring_base.(k) .. *)
  members : int array;    (*   ring_base.(k+1) - 1) *)
}

val rings : View.t -> rings
(** Tarjan's strongly connected components with more than one cell, or
    single cells with self arcs — the feedback loops of for-iter
    implementations — in the order Tarjan completes them, visiting cells
    and successors in ascending order.  Each ring's members are in visit
    order, its root (the first visited) first. *)

val topological_order : Graph.t -> int list option
(** All node ids in topological order ({!order} of every cell), or
    [None] if the graph has a cycle. *)

val cycles : Graph.t -> int list list
(** {!rings}' members, one list per ring.  Empty for acyclic graphs. *)

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
