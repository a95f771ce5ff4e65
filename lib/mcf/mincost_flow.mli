(** Minimum-cost flow, the optimization substrate behind the paper's
    optimal balancing result: "the optimum balancing of a graph (using
    minimum number of buffer stages) is equivalent to the linear
    programming dual of the min-cost flow problem" (Section 8,
    conclusion 3).

    Since balancing's optimal flow comes from {!Network_simplex}, this
    module has two roles there.  {!potentials} is the canonicalizer: it
    reads the optimal levels off the residual network of any optimal
    flow (set with {!set_flow}).  {!min_cost_max_flow} is the reference:
    a different algorithm for the same transshipment, behind
    [Balancer.dual_lower_bound], which experiment E10 and the tier-1
    properties compare with the network-simplex optimum.

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

val node_count : t -> int

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

val set_flow : t -> int -> int -> unit
(** [set_flow t id f] assigns flow [f] to an arc id, so that
    {!potentials} can read the optimal duals off a flow another solver
    found. @raise Invalid_argument unless [0 <= f <= capacity]. *)

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
