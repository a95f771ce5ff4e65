open Dfg
module C = Val_lang.Classify

(** Whole-program compilation (Theorem 4): the blocks of a pipe-structured
    program are compiled individually and connected according to the flow
    dependency graph; the acyclic interconnection is then balanced so the
    complete machine program is fully pipelined. *)

type options = {
  scheme : Foriter_compile.scheme;    (* for-iter mapping (default Auto) *)
  companion_distance : int;
      (* feedback distance of the companion scheme (default 2; powers of
         two; larger distances build the paper's log2-level G tree) *)
  balance : [ `None | `Naive | `Reduced | `Optimal ];  (* default Optimal *)
  expand_macros : bool;
      (* lower Bool_source/Iota/Fifo to pure instruction cells (default
         false: keep the abstract nodes, which simulate faster) *)
  cse : bool;
      (* merge identical cells across blocks before balancing (default
         true); see Dfg.Optimize *)
}

val default_options : options

type compiled = {
  cp_graph : Graph.t;
  cp_outputs : (string * C.array_shape) list;  (* one output stream per block *)
  cp_inputs : (string * C.array_shape) list;   (* array input streams *)
  cp_shifts : (int, int) Hashtbl.t;            (* gate phase shifts *)
  cp_schemes : (string * string) list;         (* block -> mapping used *)
}

val wave_size : C.array_shape -> int
(** Packets per wave of a stream with this shape. *)

val compile_graph :
  ?options:options ->
  Graph.t ->
  shifts:(int, int) Hashtbl.t ->
  Graph.t * (int, int) Hashtbl.t
(** The passes after block lowering, on one frozen view of the lowered
    graph (gate shifts keyed by its ids): prune cells that reach no
    [Output], merge common subexpressions ([cse]), attach a [Sink] to
    each open slot, phase-balance ([balance]), expand macros
    ([expand_macros]) and validate.  Returns the graph and the shifts
    keyed by its cell ids.
    @raise Invalid_argument when the result does not validate *)

val compile :
  ?options:options ->
  ?scalar_inputs:(string * Value.t) list ->
  C.pipe_program ->
  compiled
(** @raise Expr_compile.Unsupported
    @raise Invalid_argument when a scalar input binding is missing *)
