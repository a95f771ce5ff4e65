(** Minimum-cost flow by successive shortest paths: the test oracle for
    the paper's optimal balancing result, "the optimum balancing of a
    graph (using minimum number of buffer stages) is equivalent to the
    linear programming dual of the min-cost flow problem" (Section 8,
    conclusion 3).

    Balancing solves that flow problem by [Mcf.Network_simplex] and
    certifies each optimum with its own flow.  This is a different
    algorithm for the same transshipment, so the tests compare the two:
    its flow's dual objective with the balancer's buffer count, and the
    potentials of its residual network with the balancer's levels.

    {!min_cost_max_flow} is primal-dual: one Bellman-Ford ({!potentials})
    gives starting node potentials, so negative arc costs are accepted as
    long as the network has no negative cycle (a DAG-derived network
    never does).  Flow is
    then pushed by depth-first search along arcs of zero reduced cost;
    when no such path reaches the sink, the potentials of the nodes the
    search reached are lowered by the least reduced cost leaving them.
    Each search and each potential update costs O(arcs), so after the
    starting Bellman-Ford a solve costs arcs x (augmentations + potential
    updates), an augmentation being one search that pushes flow. *)

type t

val create : int -> t
(** [create n] - an empty network on nodes [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> capacity:int -> cost:int -> int
(** Add a directed arc; returns an arc id for {!flow_on}.
    @raise Invalid_argument on bad endpoints or negative capacity. *)

type solution = { flow : int; cost : int }

val min_cost_max_flow : t -> source:int -> sink:int -> solution
(** Push the maximum flow from [source] to [sink] at minimum total cost.
    The network keeps the final flow assignment (query with {!flow_on});
    call on a fresh network for independent solves. *)

val flow_on : t -> int -> int
(** Flow currently assigned to an arc id. *)

val residual_shortest_distances : t -> root:int -> int array option
(** Bellman-Ford distances from [root] in the residual network of the
    current flow (forward arcs with remaining capacity at [cost], backward
    arcs of used flow at [-cost]).  Unreachable nodes get [max_int].
    [None] if a negative cycle exists (i.e., the flow is not optimal). *)

val potentials : t -> int array option
(** Bellman-Ford over the residual network started from distance 0 at
    {e every} node ("virtual super-root").  The result [pi] satisfies
    [pi.(y) <= pi.(x) + cost] for every residual arc [x -> y] — valid node
    potentials certifying optimality.  [None] on a negative cycle. *)
