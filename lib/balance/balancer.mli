open Dfg

(** Balancing of acyclic instruction graphs (Section 8 of the paper).

    A {e level assignment} gives each cell an integer depth such that for
    every arc [u -> v]:  [level v - level u >= delay u] (delay is 1, or
    [k] for a [Fifo k]).  The {e slack} of an arc is the excess
    [level v - level u - delay u]; inserting a FIFO of that capacity on
    the arc makes every path exactly equal, which is the paper's condition
    for fully pipelined operation.  The arcs are the only constraints:
    [Input] cells get no common level.  {!naive_levels} starts every cell
    without predecessors at 0, and {!reduce_levels} and {!optimal_levels}
    move each [Input] as late as its consumers allow, since its stream is
    paced by its own acknowledges.

    Three level-construction algorithms are provided, matching the
    paper's conclusions (1)-(3):
    - {!naive_levels} — longest-path from the inputs (polynomial,
      always feasible, usually wasteful);
    - {!reduce_levels} — a polynomial local-improvement pass over any
      feasible assignment ("an algorithm which can effectively reduce the
      buffering in many cases");
    - {!optimal_levels} — minimum total buffering, solved exactly as the
      LP dual of a min-cost flow problem: network simplex
      ({!Mcf.Network_simplex}) finds optimal levels and an optimal flow,
      the flow certifies them ({!Mcf.Network_simplex.certify}), and the
      levels returned are the canonical ones read off that flow, which
      it certifies too.  A refused certificate raises [Failure]: no
      caller, the compiler included, gets levels that are not proven
      optimal.

    Everything here runs on a frozen {!Dfg.View.t} and flat arc arrays:
    the graph functions freeze their graph once, ring analysis
    ({!Dfg.Analysis.rings}) and the level algorithms read the view's
    arrays, and a balanced graph is built once, cells first, then one
    FIFO per buffered arc in the order of the destination lists. *)

exception Cyclic
(** Raised when the graph has feedback cycles (balance for-iter loops with
    the companion transformation instead, Section 7). *)

val naive_levels : Graph.t -> int array
(** Longest-path levels, each node adding {!Analysis.node_delay} to the
    paths through it. @raise Cyclic *)

val reduce_levels : Graph.t -> int array -> int array
(** Iterated coordinate descent: move each unpinned cell to the end of its
    feasible interval that lowers total slack; repeat to a fixpoint.
    Input is any feasible assignment; result is feasible and no worse. *)

val optimal_levels : Graph.t -> int array
(** Minimum-total-slack levels (exact optimum): network simplex from
    {!naive_levels}, then the least optimal levels [>= 0], read off its
    flow by a Bellman-Ford; they are the same for every optimal flow
    (docs/THEORY.md §3), so the levels do not depend on the solver.
    Both the solver's levels and these are certified against the flow.
    @raise Cyclic
    @raise Failure if a certificate is refused (a solver bug). *)

val optimal_levels_arcs : int -> (int * int * int) list -> int array
(** The solve behind {!optimal_levels} and [`Optimal] {!phase_balance},
    on nodes [0 .. n-1] and arcs [(src, dst, weight)], each asking
    [level dst - level src >= weight]; parallel arcs and negative weights
    are allowed.  @raise Cyclic when the arcs contain a cycle. *)

val is_feasible : Graph.t -> int array -> bool
(** Every arc satisfies the level constraint. *)

val buffer_cost : Graph.t -> int array -> int
(** Total slack = number of buffer stages the assignment implies. *)

val balance : ?strategy:[ `Naive | `Reduced | `Optimal ] -> Graph.t -> Graph.t
(** Compute levels (default [`Optimal]) and insert a [Fifo slack] on
    every arc with positive slack.  Node ids [0 .. node_count-1] are
    preserved; FIFOs are appended after them.  @raise Cyclic *)

val phase_balance :
  ?strategy:[ `Naive | `Reduced | `Optimal ] ->
  shift:(int -> int) ->
  Graph.t ->
  Graph.t
(** Steady-state {e phase} balancing for compiled graphs whose gates
    discard stream prefixes.  [shift id] is the wave position of the first
    element the gate with node id [id] forwards (0 for ordinary cells); a
    gate displaces downstream phases by [2 * shift] time units, and FIFO
    capacity of [ceil (slack/2)] is inserted to absorb the differences —
    this reproduces the FIFO(2) buffers of the paper's Figure 4.
    Arcs inside strongly connected components (for-iter feedback loops,
    which are self-timed) are left untouched; only the acyclic
    interconnection is balanced, per Theorem 4. *)

val phase_balance_view :
  ?strategy:[ `Naive | `Reduced | `Optimal ] ->
  shift:(int -> int) ->
  View.t ->
  Graph.t
(** {!phase_balance} on a view, the compiler's entry: rings are found,
    contracted and balanced on the view's flat arrays, and the balanced
    graph is built once, with the view's cells first. *)

val dual_lower_bound : Graph.t -> int
(** The min-cost-flow dual objective [Σ w·f - Σ w] of the flow that
    certifies {!optimal_levels}: by weak duality a lower bound on the
    buffer stages any balancing needs, whichever solver found the flow,
    and equal to [buffer_cost g (optimal_levels g)] since the flow is
    certified optimal.  Experiment E10 tabulates it; the test suite
    checks it against successive shortest paths, an independent solver
    kept in test/.  @raise Cyclic *)
