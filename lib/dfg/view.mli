(** A frozen, int-indexed view of an instruction graph, for the compile
    passes.

    {!of_graph} reads a {!Graph.t} once, in O(cells + arcs), into flat
    arrays; dead-cell pruning, CSE, ring analysis and balancing then run
    on masks, id maps and these arrays, and the result is built as a
    {!Graph.t} once.  [Exec.Arena] lowers a graph for the engines from
    the same arrays.

    Cell [c]'s output slot [s] is global slot [slot_base.(c) + s]; its
    out-arcs are [dest_base.(k) .. dest_base.(k+1) - 1] for global slot
    [k], as destination cell and port, in connect order.  Cell [c]'s
    input port [p] is global port [port_base.(c) + p]. *)

type t = private {
  graph : Graph.t;          (* the graph the cells come from *)
  n : int;                  (* cells *)
  cell : int array;         (* graph id of each cell; -1 for an added [Sink] *)
  slot_base : int array;    (* length n+1 *)
  dest_base : int array;    (* length slots+1 *)
  dest_cell : int array;
  dest_port : int array;
  succ_base : int array;    (* distinct successors, ascending: *)
  succ : int array;         (*   succ.(succ_base.(c) .. succ_base.(c+1) - 1) *)
  pred_base : int array;    (* distinct predecessors, ascending *)
  pred : int array;
  port_base : int array;    (* length n+1 *)
  producer : int array;     (* per port: a producing cell, -1 when none *)
  producer_slot : int array;
  producers : int array;    (* per port: how many arcs feed it *)
}

val of_graph : Graph.t -> t
(** Cell ids are the graph's. *)

val merge :
  ?reverse:bool -> t -> live:bool array -> rep:int array -> t * int array
(** The view after pruning and merging: the live cells [c] with
    [rep.(c) = c] in ascending order, then one [Sink] for every slot left
    without a destination, numbered from the last such slot down.  Kept
    cell [c] carries, slot by slot, the out-arcs of every live cell it
    represents (ascending), to live cells that represent themselves;
    each cell's arcs in connect order, or last connected first with
    [~reverse:true].
    Also returns each live cell's new id (its representative's), [-1]
    for dead cells.  Cells [c] and [rep.(c)] must have the same opcode. *)

val op : t -> int -> Opcode.t

val node : t -> int -> Graph.node
(** The graph node behind a cell.  @raise Invalid_argument on an added
    [Sink]. *)

val cells : t -> Graph.t
(** A new graph holding the view's cells with their ids, and no arcs. *)

val to_graph : t -> Graph.t
(** {!cells} with every arc connected in connect order. *)
