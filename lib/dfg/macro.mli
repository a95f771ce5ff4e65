(** Macro expansions that lower abstract nodes to pure machine code.

    The compiler emits two convenience node kinds that a real static
    dataflow machine would not have: elastic [Fifo k] buffers and
    [Bool_source] control-sequence generators.  Both are implementable
    with ordinary instruction cells; these expansions perform that
    lowering so every result can be validated on a graph containing only
    primitive cells:

    - [Fifo k] becomes a chain of [k] identity cells, matching the
      paper's formulation where FIFOs are just buffering stages and
      "each path through the graph passes through exactly the same
      number of instruction cells";
    - [Bool_source s] (cyclic [s]) becomes an index generator — an
      ADD/ID feedback loop of even length 2 carrying one token, hence
      running at the maximal rate 1/2 — followed by MOD and a balanced
      comparison tree that tests membership of the position in the true
      runs of [s].  This realizes Todd's "straightforward arrangements
      of data flow instructions" cited in Section 6. *)

val expand_fifos : Graph.t -> Graph.t
(** Replace every [Fifo k] with a chain of [k] [Id] cells. *)

val expand_bool_sources : Graph.t -> Graph.t
(** Replace every cyclic [Bool_source] with an instruction subgraph.
    Finite sources are left in place (they occur only in tests). *)

val expand_all : Graph.t -> Graph.t
(** [expand_bool_sources]; then every [Iota] index source replaced
    with a counter / MOD / ADD subgraph; then [expand_fifos]. *)
