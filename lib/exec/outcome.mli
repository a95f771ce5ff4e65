(** The engine-independent run outcome.

    Both engines report the same shape of result — outputs, an end
    time, quiescence, an optional stall report, sanitizer violations —
    plus per-engine counters.  [Outcome.t] carries that common surface
    once, so dfserve, the sweep grid, benchmarks and fault checking
    consume one type instead of matching on the engine; the full
    engine result stays reachable through {!detail} for callers that
    need engine-specific depth (trace records, PE dispatch vectors,
    snapshots).

    The metrics registries are built here from the same outcome
    ({!metrics}), so a served response and a standalone run render
    identical metrics by construction. *)

open Dfg

type counters = {
  firings : int;
      (** instruction firings: graph-engine fire count, machine-engine
          dispatches *)
  cells : int;  (** cells in the program graph (0 for machine runs —
                    read the graph, or {!detail}, when needed) *)
  fu_ops : int;  (** function-unit operations (machine engine only) *)
  am_ops : int;  (** array-memory operations (machine engine only) *)
  result_packets : int;  (** routing-network result packets *)
  ack_packets : int;  (** acknowledge packets *)
  retransmits : int;  (** recovery-protocol resends *)
  checkpoints : int;  (** periodic checkpoints taken *)
  recoveries : int;  (** crash recoveries performed *)
}
(** Counters the graph engine does not track are 0 for [Sim] runs. *)

type detail =
  | Sim_detail of Sim.Engine.result
  | Machine_detail of Machine.Machine_engine.result
      (** The untruncated engine result, for engine-specific needs. *)

type t = {
  name : string;  (** the job label, used in error messages *)
  outputs : (string * (int * Value.t) list) list;
  end_time : int;
  quiescent : bool;
  stall : Fault.Stall_report.t option;
  violations : Fault.Violation.t list;
  counters : counters;
  detail : detail;
}

val of_sim : name:string -> Sim.Engine.result -> t
val of_machine : name:string -> Machine.Machine_engine.result -> t

val am_fraction : counters -> float
(** [am_ops / (firings + am_ops)] — [nan] when nothing fired, 0 for
    graph-engine runs (no array memories in that model). *)

val digest : t -> int
(** {!Integrity.digest_outputs} of the outputs: the order-sensitive
    checksum dfserve and the determinism checks compare. *)

val stream : t -> string -> (int * Value.t) list
(** Arrivals of one output stream.
    @raise Invalid_argument naming the unknown stream and the streams
    the run actually produced. *)

val output_values : t -> string -> Value.t list
val output_times : t -> string -> int list

val metrics : t -> Obs.Metrics_registry.t
(** The run rendered into the shared metrics vocabulary
    ([sim.*] or [machine.*] keys depending on the engine). *)

val metrics_of_sim : Sim.Engine.result -> Obs.Metrics_registry.t
val metrics_of_machine :
  Machine.Machine_engine.result -> Obs.Metrics_registry.t
(** The registry builders behind {!metrics}, exposed for callers that
    hold a bare engine result. *)
