(** Network simplex for the tension LP behind optimal balancing:

    {v minimize  Σ_a (level dst(a) - level src(a))
    subject to level dst(a) - level src(a) >= weight(a)   for every arc a v}

    the linear program whose dual is the balancing transshipment (see
    docs/THEORY.md §3).  It is dot's layer-assignment problem, solved as
    in Gansner, Koutsofios, North & Vo, "A Technique for Drawing Directed
    Graphs" (IEEE TSE 1993): from a feasible level assignment, build a
    spanning tree of tight arcs (slack 0) in every connected component,
    give each tree arc its cut value, and pivot a tree arc of negative
    cut value out for the least-slack arc across its cut until none is
    left.  The cut values are then an optimal flow of the transshipment.

    A solve costs one tree build, whose merges each scan the arcs
    leaving the tree grown so far, plus per pivot one scan of the tree
    arcs and work proportional to the subtree the pivot moves. *)

val optimal_flow :
  src:int array -> dst:int array -> weight:int array -> int array -> int array
(** [optimal_flow ~src ~dst ~weight levels] takes arcs
    [src.(a) -> dst.(a)] and a feasible [levels] (every arc has
    [levels.(dst) - levels.(src) >= weight]) over nodes
    [0 .. length levels - 1], and returns an optimal flow of the dual
    transshipment, one entry per arc: non-negative, [Σ in - Σ out =
    indegree - outdegree] at every node, and positive only on arcs that
    [levels] leaves tight.  [levels] is updated in place to an optimal
    assignment.  Terminates on every input: the most negative cut value
    leaves, and a long run of degenerate pivots falls back to
    smallest-index pivoting (see the implementation).
    @raise Invalid_argument if the arrays disagree in length, an
    endpoint is out of range, an arc is a self-loop or [levels] is
    infeasible. *)
