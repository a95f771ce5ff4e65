(** Structured stall / deadlock reports.

    When a run ends with work left undone — quiescent with tokens still
    resident (a deadlock), halted by the progress watchdog, or cut off
    at [max_time] — the engine builds one of these instead of a string
    list: which cells are blocked, what each one holds and waits for,
    and, when the wait-for graph contains one, the cycle that explains
    the deadlock. *)

type reason =
  | Deadlock  (** quiescent, but tokens remain resident *)
  | No_progress  (** the watchdog saw no firing for its window *)
  | Max_time_exhausted  (** the simulation clock ran out, not quiescent *)

type blocked = {
  b_node : int;
  b_label : string;
  b_op : string;  (** opcode name *)
  b_missing : int list;  (** arc ports still waiting for an operand *)
  b_held : (int * string) list;  (** occupied ports: [(port, value)] *)
  b_pending_acks : int;  (** acknowledges the cell is still owed *)
  b_queue_len : int;  (** resident FIFO items *)
  b_pending_inputs : int;  (** unsent packets of an [Input] stream *)
}

type t = {
  sr_time : int;  (** simulated time the stall was detected at *)
  sr_reason : reason;
  sr_blocked : blocked list;
  sr_cycle : int list option;
      (** a cycle in the wait-for graph reachable from a blocked cell,
          as node ids in dependency order, when one exists *)
  sr_dead_pes : int list;
      (** processing elements that fail-stopped and were never recovered
          — their cells can never fire, which explains wedges that have
          no wait-for cycle *)
}

val make :
  ?dead_pes:int list ->
  time:int -> reason:reason -> blocked:blocked list -> edges:(int * int) list
  -> unit -> t
(** [edges] are wait-for edges [(waiter, waited_on)] — a cell waiting
    for an operand points at the producer of the empty port; a cell
    waiting for acknowledges points at the consumers still holding its
    tokens.  [make] finds a cycle reachable from the blocked set.
    [dead_pes] (default none) records unrecovered PE crashes. *)

val unexpected : t option -> bool
(** Whether a run's stall is a finding.  A [Deadlock] report at
    quiescence is the normal end state of a primed feedback loop;
    anything else (watchdog, max_time) is not. *)

val reason_name : reason -> string

val blocked_line : blocked -> string
(** One-line rendering of a blocked cell ("label#id holds …; awaits …"). *)

val to_string : t -> string
(** Multi-line rendering: header, blocked cells, cycle if any. *)
