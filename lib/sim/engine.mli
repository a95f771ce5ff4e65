(** Cycle-accurate simulator of the static dataflow machine.

    Timing model (Section 3 of the paper): integer time; a cell that fires
    at [t] delivers its result packets {e and} its acknowledge packets at
    [t+1].  A cell is enabled when every operand is present and the
    acknowledges from all destinations of its previous firing have
    arrived.  A balanced pipeline therefore sustains one firing per cell
    every 2 time units — the paper's "about two instruction times" — and a
    feedback loop of [c] cells carrying [d] tokens sustains rate [d/c].

    Arcs have capacity 1: delivering a packet to an occupied operand port
    is a protocol violation and raises {!Protocol_error} (it means the
    acknowledge discipline was broken, e.g. by a mis-built graph).  With a
    sanitizer the same breach is recorded as a structured
    {!Fault.Violation.t} instead and the run halts.

    Ports declared [In_arc_init] start loaded with a token, and their
    producers start owing one acknowledge — operand values written at
    program-load time, which is how feedback loops are primed.

    The engine runs on a flat arena (see {!Arena}): {!run_cfg} lowers
    the graph into int-indexed arrays, {!run_arena} runs an arena
    lowered once beforehand; the run state is the {!Run_state} layout
    the machine engine shares.  A firing writes its packets and
    acknowledges into that state at once, stamped with their arrival
    times, and queues only the cells to wake then; steady state
    allocates nothing.  [docs/ENGINE.md] describes the layout. *)

open Dfg

exception Protocol_error of string

type result = {
  outputs : (string * (int * Value.t) list) list;
  (** For each output stream, arrival [(time, value)] pairs in order. *)
  fire_counts : int array;      (** firings per node id *)
  fire_times : int list array;  (** firing timestamps (newest first) per node,
                                    recorded when [record_firings] is set *)
  end_time : int;               (** time of the last event processed *)
  quiescent : bool;             (** no events left before [max_time] *)
  stuck : Fault.Stall_report.t option;
  (** A structured stall report when the run ended with work undone:
      tokens resident at quiescence (deadlock diagnostics — also the
      normal end state of primed feedback loops), the progress watchdog
      tripping, or [max_time] exhaustion.  [None] on a clean drain. *)
  violations : Fault.Violation.t list;
  (** Protocol breaches recorded by the [sanitizer]; empty without one. *)
}

val run_cfg :
  Run_config.t ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  result
(** Simulate until quiescence or [Run_config.max_time] (default
    10_000_000).  [inputs] supplies the full packet sequence for every
    [Input] node (concatenate waves for steady-state measurements);
    every declared input must be present.

    [tracer] (default {!Obs.Tracer.null}, which costs one branch per
    instrumentation point and records nothing) receives a typed event
    for every firing, packet delivery and acknowledge, plus stall
    diagnostics at quiescence — export with {!Obs.Perfetto}.  Tracing
    never changes simulation results or timing.

    [fault] perturbs the run deterministically (same seed, same run).
    This engine honours only the plan's {e delay} faults — extra latency
    on result and acknowledge packets — which never break the
    acknowledge discipline, so output streams must be unchanged
    ({!Fault_diff} asserts exactly that).

    [sanitizer] (default {!Fault.Sanitizer.null}) shadow-checks the
    one-token-per-arc and acknowledge-conservation invariants on every
    packet and acknowledge, as it is sent, stamped with its arrival
    time; breaches become {!result.violations} instead of raised
    strings, and a fatal breach halts the run at the end of that time
    step.

    [watchdog] stops the run and files a [No_progress] stall report if
    no cell fires for that many consecutive time units while packets are
    still in flight (set it above any injected delay).

    [recovery] and [integrity] are machine-engine-only and ignored here.
    @raise Protocol_error on arc-capacity violations (without sanitizer)
    @raise Invalid_argument on missing/unknown input streams *)

val run_arena :
  Run_config.t ->
  Arena.t ->
  inputs:(string * Value.t list) list ->
  result
(** {!run_cfg} on an arena built beforehand: [run_cfg cfg g ~inputs] is
    [run_arena cfg (Arena.build g) ~inputs].  An arena is immutable, so
    one can back any number of runs, concurrent ones included. *)

val output_values : result -> string -> Value.t list
(** Values of an output stream in arrival order.
    @raise Invalid_argument naming the unknown stream and the streams
    the run actually produced. *)

val output_times : result -> string -> int list
(** Arrival times of an output stream; errors as {!output_values}. *)
