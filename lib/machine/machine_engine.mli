open Dfg

(** Machine-level simulator of the Figure 1 architecture.

    The same instruction graphs and firing rules as {!Sim.Engine}, with
    machine resources made explicit:

    - every cell lives on a processing element ([node id mod n_pe]); an
      enabled cell consumes one dispatch slot of its PE per firing (PEs
      dispatch one instruction per cycle);
    - arithmetic, comparison and boolean instructions execute on the
      shared function-unit pool (pipelined: each FU accepts one operation
      per cycle and delivers after [fu_latency]); all other instructions
      complete locally in one cycle;
    - result and acknowledge packets transit the routing network with
      [rn_latency];
    - under the [Stored] array policy, packets leaving a {e block
      boundary} (a cell that feeds an [Output], i.e. a producer of a
      completed array value) are written to an array memory and read back
      by the consumer: one write plus one read on the AM pool (each AM
      serves one operation per cycle with [am_latency]); under [Streamed]
      — the paper's proposal — they travel the routing network like any
      other result packet.

    The traffic statistics reproduce the Section 2 claim that with
    streamed arrays "one eighth or less of the operation packets would be
    sent to the array memories".

    The engine is a resumable state machine: {!create_cfg} builds it,
    {!advance} runs it (to completion or a pause point), {!snapshot} /
    {!restore} capture and reinstate its complete state, and {!result}
    reads the outcome.  {!run_cfg} is the one-shot composition of these.
    {!restore} validates the whole snapshot before it writes anything,
    so a refused one leaves the machine exactly as it was.
    {!create_arena} and {!run_arena} do the same on an arena lowered
    beforehand, which any number of machines can share.

    It runs on the {!Arena} lowering and keeps the run state both
    engines share in the {!Run_state} layout: operand slots per port,
    owed acknowledges per cell, FIFO rings, input cursors.  What only
    the machine has — the hosting PE per cell and the recovery
    protocol's sequence numbers per port — lives in flat side arrays
    beside it.  Queued events are ints: slots of a flat event slab,
    ordered by time in a timing wheel ({!Wheel}), so steady state
    allocates nothing per packet (docs/ENGINE.md).

    Events that fall due at the same time apply in the order they were
    queued.  That order decides which ready cell gets a PE slot, an FU
    or an AM first, so it fixes every timing; values never depend on
    it. *)

type stats = {
  dispatches : int;        (** instruction firings (operation packets) *)
  fu_ops : int;            (** operations executed by function units *)
  am_ops : int;            (** array-memory operations (reads + writes) *)
  result_packets : int;    (** result packets through the routing network,
                               including retransmitted copies *)
  ack_packets : int;       (** acknowledge packets *)
  retransmits : int;       (** result packets resent by the recovery
                               protocol (0 without a recovery policy) *)
  corruptions : int;       (** payload bit-flips injected in flight *)
  corrupt_detected : int;  (** corrupt packets caught by checksum and
                               discarded (0 unless integrity is on) *)
  corrupt_healed : int;    (** discarded packets later replaced by a clean
                               retransmitted copy (needs recovery) *)
  pe_dispatches : int array;  (** firings dispatched per processing element *)
}

type result = {
  outputs : (string * (int * Value.t) list) list;
  stats : stats;
  end_time : int;
  quiescent : bool;
  stall : Fault.Stall_report.t option;
  (** Structured stall diagnostics when the run ended with work undone:
      tokens resident at quiescence, the progress watchdog tripping, or
      [max_time] exhaustion (previously silent).  [None] on a clean
      drain. *)
  violations : Fault.Violation.t list;
  (** Protocol breaches recorded by the run's sanitizer; empty unless
      [Run_config.sanitize] is set. *)
  checkpoints : int;
  (** Periodic checkpoints taken (0 without a recovery policy; the
      implicit program-load snapshot is not counted). *)
  recoveries : int;
  (** Crash recoveries performed (rollback + re-host + replay). *)
}

(** {1 Recovery}

    The static dataflow discipline makes checkpoint/restart unusually
    clean: every arc holds at most one token, every in-flight packet is
    either a result awaiting an acknowledge or the acknowledge itself,
    and the machine state is a finite set of per-port operand slots and
    per-cell counters plus the event queue.  A snapshot of those is a
    {e consistent global checkpoint} by construction — there is no
    uncheckpointed channel state to chase (the Chandy–Lamport problem
    does not arise because the simulator quiesces the current instant
    before snapshotting).

    The recovery policy adds two mechanisms:

    - {e retransmission}: a producer holds every unacknowledged result
      packet and resends it with exponential backoff, so lost packets
      and lost acknowledges ([drop], [drop-ack] faults) are survivable.
      Packets carry per-channel sequence numbers; consumers deduplicate
      and re-acknowledge, giving at-least-once delivery with
      exactly-once effect.
    - {e checkpoint/rollback}: on a [Pe_crash] fault the machine rolls
      back to the last checkpoint, marks the PE dead, re-hosts its cells
      onto survivors ({!Arch.place}), and replays.  The rollback
      reinstates machine state only (a {!state}): the checkpoint and
      recovery counters, the crash flag and the rollback target are
      kept, and the checkpoint clock restarts at the rollback time.
      Replay is deterministic: fault decisions are pure functions of
      (seed, time, endpoints), so the recovered run re-derives the same
      perturbations and the outputs equal a crash-free run.

    The policy is {!Run_config.recovery}; {!Run_config.default_recovery}
    is the usual starting point. *)

type t
(** A machine in progress. *)

type event =
  | Deliver of {
      port : int;
      seq : int;
      value : Value.t;  (** payload as delivered (possibly corrupted) *)
      crc : int;  (** {!Integrity.checksum_value} of the payload as sent *)
    }
  | Ack of { port : int; seq : int }
  | Retransmit of { port : int; seq : int }
(** A queued event as the engine keeps it.  Every packet and
    acknowledge in flight belongs to one arc, so an event names the
    arc by its consumer-side global {!Arena} port ({!Arena.is_arc}):
    a result packet delivered to that port, the acknowledge of a
    packet consumed there travelling back to the port's producer, or
    the producer's retransmission timer for its packet on that port.
    [seq] is the packet's sequence number on the arc (0 without a
    recovery policy). *)

(** {1 Snapshots}

    A snapshot copies the whole run state: the {!Run_state} layout the
    graph engine shares, plus flat arrays for what only the machine
    has, the event queue, resource pools and counters.  Per-port arrays
    are indexed by the {!Arena}'s global port numbers. *)

type 'resume snap = {
  sn_time : int;
  sn_last_progress : int;
  sn_stats : stats;
  sn_run : Run_state.t;  (** canonical form, see {!Run_state.snapshot} *)
  sn_pe : int array;  (** per cell: hosting processing element *)
  sn_cons_seq : int array;  (** per port: packets consumed *)
  sn_recv_seq : int array;  (** per port: packets accepted (recovery) *)
  sn_sent : int array;  (** per port: packets its producer sent (recovery) *)
  sn_out_attempts : int array;
      (** per port: resends of its one unacknowledged packet — sequence
          [sent - 1] — or [-1] when none awaits an acknowledge
          (recovery) *)
  sn_out_value : Value.t array;
      (** per port: that packet's payload; {!Arena.dummy_value} when
          none *)
  sn_corrupt_pend : int array;
      (** per port: sequence number of a packet discarded as corrupt and
          not yet healed, or [-1] *)
  sn_events : (int * event) array;
      (** the queued events with their due times, in the order they
          apply: by time, and events of one time in the order they were
          queued.  {!restore} queues them again in this order, so a
          resumed run allocates PEs, FUs and AMs as the saved one
          would have *)
  sn_pes : int array;
  sn_fus : int array;
  sn_ams : int array;
  sn_pe_dead : bool array;
  sn_sanitizer : Fault.Sanitizer.snapshot option;
  sn_resume : 'resume;
}

type state = unit snap
(** Machine state only: what a crash rollback reinstates. *)

type resume = {
  rs_crash_done : bool;  (** the planned PE crash has struck *)
  rs_next_checkpoint : int;  (** time of the next periodic checkpoint *)
  rs_checkpoints : int;
  rs_recoveries : int;
  rs_rollback : state option;
      (** the crash rollback target, carried only while a crash is still
          to strike a recovering machine *)
}
(** What a resumed run needs beyond machine state to continue exactly
    as the saved one would have. *)

type snapshot = resume snap
(** Complete, self-contained run state: plain data, no closures.
    [Recover.Checkpoint] serializes it.  A rollback target is a
    {!state}, so snapshots never nest. *)

val default_max_time : int
(** 30_000_000 — the machine model's default time budget (larger than
    the graph engine's: resource latencies stretch the same workload). *)

val default_config : Run_config.t
(** {!Run_config.default} with [max_time = default_max_time] — the
    starting point for machine-engine configurations. *)

val create_cfg :
  Run_config.t ->
  arch:Arch.t ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  t
(** Build a machine ready to run; nothing fires until {!advance}.
    [Run_config.record_firings] is graph-engine-only and ignored
    here.  See {!run_cfg} for the
    semantics of the remaining fields.
    @raise Invalid_argument on invalid graphs, missing or unknown input
    streams, a configuration {!Run_config.check} refuses (with its
    message), or an arch with [rn_latency < 1] or a negative FU or AM
    latency (every event must fall due after the time it is queued
    at). *)

val create_arena :
  Run_config.t ->
  arch:Arch.t ->
  Arena.t ->
  inputs:(string * Value.t list) list ->
  t
(** {!create_cfg} on an arena built beforehand: [create_cfg cfg ~arch g
    ~inputs] is [create_arena cfg ~arch (Arena.build g) ~inputs].  The
    arena is only read. *)

val advance : t -> until:int -> unit
(** Run the event loop, stopping when the machine {!finished} (clean
    drain, [max_time], watchdog, fatal sanitizer breach) or when the
    next event lies beyond time [until] (a pause: call [advance] again
    to continue).  [advance m ~until:max_int] runs to completion. *)

val finished : t -> bool

val snapshot : t -> snapshot
(** Deep-copy the complete run state, including the crash flag, the
    checkpoint clock, the checkpoint and recovery counters and the
    rollback target.  Meaningful at any pause point; the copy is
    unaffected by further running. *)

val restore : t -> snapshot -> unit
(** Reinstate a snapshot taken from a machine with the same graph, arch
    and configuration; the machine then resumes bit-identically to the
    run the snapshot was taken from (same outputs, timestamps, stats,
    checkpoint and recovery counts) — also when the snapshot was taken
    before a planned crash, or after one.
    @raise Invalid_argument, before anything is written, naming the
    checkpoint field: when an array has another length than the
    machine's, a FIFO holds more items than its capacity, the sanitizer
    section does not fit the machine's sanitizer ({!Fault.Sanitizer.misfit}),
    a cell's PE lies outside the arch or its cursor below 0, or a
    queued event (also in the rollback target) names a port that is no
    arc of the graph ({!Arena.is_arc}), falls due at or before the
    snapshot's time, or is listed before an event due earlier.  This
    is the only check a snapshot meets: {!Run_state.restore} and
    {!Fault.Sanitizer.restore} write what it accepted. *)

val result : t -> result
(** Read the outcome.  On a {!finished} machine this includes the stall
    diagnosis and quiescence-time sanitizer checks; on a paused machine
    it is a progress report ([stall = None], [quiescent = false]). *)

val run_cfg :
  Run_config.t ->
  arch:Arch.t ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  result
(** One-shot {!create_cfg} + {!advance} to completion + {!result}.
    Start from {!default_config} (or {!Run_config.default} when the
    graph engine's smaller time budget is wanted).

    Simulate on the machine model.  [tracer] (default
    {!Obs.Tracer.null}) receives a {!Obs.Event.Fire} per dispatch —
    tracked per PE, with the duration covering dispatch through FU
    completion so PE occupancy is directly visible in a trace viewer —
    and deliver/ack events for the routing-network and array-memory
    traffic.  Tracing never changes results or timing.

    [fault] perturbs the run deterministically (same seed, same run).
    This engine honours the full plan: extra routing-network latency on
    selected result and acknowledge packets, duplicated packet delivery,
    dropped result packets, dropped acknowledges, per-PE dispatch
    stalls, FU/AM slowdown, and a fail-stop PE crash.  Delay-only plans
    cannot change output values (the Kahn-network argument —
    {!Fault_diff} asserts it); [dup]/[drop]/[drop-ack]/[crash] break the
    machine on purpose — for the sanitizer to catch, or for the
    [recovery] policy to survive.

    [sanitize] (default off) builds a fresh {!Fault.Sanitizer} over
    the graph for this machine, which shadow-checks one-token-per-arc
    and acknowledge conservation at every event; breaches become
    {!result.violations} and a fatal breach halts the run.  Without
    it, an arc-capacity breach raises [Invalid_argument] as before.
    Under recovery the sanitizer sees only logically-new packets
    (duplicates are filtered first), so a successfully recovered run
    reports zero violations.

    [watchdog] stops the run and files a [No_progress] stall report if
    no cell fires for that many consecutive time units while packets are
    still in flight (set it above any injected delay — and above the
    full retransmission window when recovery is on).

    [recovery] (default off) enables the checkpoint/retransmission
    protocol above.  Without it the engine behaves exactly as before
    this protocol existed: a crash permanently kills the PE and the run
    wedges into a stall report naming it.

    [integrity] (default off) verifies the {!Integrity} checksum every
    result packet carries from its producer.  A mismatch (a [corrupt] /
    [corrupt-ctl] fault struck in flight) discards the packet — which
    then behaves exactly like a dropped packet: fatal-by-starvation
    without [recovery], healed by retransmission with it.  With
    integrity off, corrupted payloads are accepted silently and surface
    only as wrong output values ({!Fault_diff} diagnoses this case).
    @raise Invalid_argument on invalid graphs, missing or unknown
    input streams, or a configuration {!Run_config.check} refuses *)

val run_arena :
  Run_config.t ->
  arch:Arch.t ->
  Arena.t ->
  inputs:(string * Value.t list) list ->
  result
(** {!run_cfg} on an arena built beforehand ({!create_arena}). *)

val am_fraction : stats -> float
(** Fraction of operation packets that involve the array memories:
    [am_ops / (dispatches + am_ops)] — [nan] when the run dispatched
    nothing (no packets, no defined fraction). *)

val output_values : result -> string -> Value.t list
(** Values of an output stream in arrival order.
    @raise Invalid_argument naming the unknown stream and the streams
    the run actually produced. *)

val output_times : result -> string -> int list
(** Arrival times of an output stream; errors as {!output_values}. *)

(** {1 The event queue}

    The timing wheel {!advance} keeps its events in, exposed for its
    tests.  Payloads are non-negative ints (the engine's are event-slab
    slots); the queue has a current time, which {!Wheel.start}
    advances.  Events due at one time come out in the order they were
    pushed. *)
module Wheel : sig
  type t

  val horizon : int
  (** 1024 buckets, one time each: an event due less than [horizon]
      after the current time is linked into its time's bucket at once;
      a later one waits in the overflow, a {!Df_util.Ipq} keyed by time
      (equal times pop in push order), until {!start} brings it within
      the horizon.  The horizon covers the default latencies and the
      default recovery's longest backoff (16 × 48). *)

  val create : unit -> t
  (** An empty queue at time 0. *)

  val length : t -> int

  val push : t -> int -> int -> unit
  (** [push w t x] queues payload [x >= 0] due at [t], which must not be
      before the current time. *)

  val next_time : t -> int
  (** The earliest time an event is due, or [-1] when none is queued. *)

  val start : t -> int -> unit
  (** [start w t], with [t = next_time w]: make [t] the current time. *)

  val take : t -> int
  (** Remove and return the next payload due at the current time, or
      [-1] when none is left. *)

  val to_array : t -> (int * int) array
  (** Every queued [(time, payload)], in the order they come out. *)

  val clear : t -> base:int -> unit
  (** Empty the queue and make [base] its current time.  Pushing a
      queue's {!to_array} back in order, with [base] that queue's
      current time, rebuilds it: the same entries come out in the same
      order. *)
end
