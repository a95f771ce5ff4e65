(** Typed trace events emitted by the simulators.

    Every event carries the simulated [time] it happened at and a [track]
    — the lane it should be drawn on in a trace viewer.  The
    graph-level simulator ({!Sim.Engine}) uses one track per instruction
    cell; the machine-level simulator ({!Machine.Machine_engine}) uses
    one track per processing element, so PE occupancy is visible
    directly.  Times are in instruction times (the paper's integer
    clock), exported 1:1 as trace microseconds by {!Perfetto}. *)

type t =
  | Fire of {
      time : int;  (** firing start *)
      dur : int;  (** occupancy: 1 for the graph simulator, PE dispatch
                      through FU completion for the machine simulator *)
      track : int;
      node : int;  (** instruction cell id *)
      label : string;
      op : string;  (** opcode name *)
    }
  | Deliver of {
      time : int;  (** arrival time at [dst] *)
      track : int;
      src : int;
      dst : int;
      port : int;
      value : string;
    }
  | Ack of {
      time : int;  (** arrival time at [dst] (the producer being freed) *)
      track : int;
      src : int;  (** the consumer that issued the acknowledge *)
      dst : int;
    }
  | Stall of {
      time : int;  (** quiescence time at which the condition was seen *)
      track : int;
      node : int;
      label : string;
      reason : string;  (** deadlock/stall diagnostic *)
    }
  | Fault_injected of {
      time : int;  (** time the perturbed packet/dispatch was issued *)
      track : int;
      kind : string;  (** "delay", "ack-delay", "dup", "drop-ack",
                          "pe-stall", … *)
      src : int;
      dst : int;
      extra : int;  (** injected extra latency (0 for drop/dup) *)
    }
  | Violation of {
      time : int;
      track : int;
      node : int;
      label : string;
      kind : string;  (** {!Fault.Violation.kind_name} of the breach *)
      detail : string;
    }
  | Checkpoint of {
      time : int;
      track : int;
      seq : int;  (** checkpoint ordinal within the run *)
      in_flight : int;  (** packets resident in the event queue *)
    }
  | Recovery of {
      time : int;  (** crash time *)
      track : int;
      pe : int;  (** the processing element that fail-stopped *)
      restored_to : int;  (** checkpoint time rolled back to *)
      remapped : int;  (** cells re-hosted onto surviving PEs *)
    }
  | Retransmit of {
      time : int;  (** resend time *)
      track : int;
      src : int;
      dst : int;
      port : int;
      attempt : int;  (** 1-based resend attempt *)
    }
  | Corrupt_injected of {
      time : int;  (** time the packet was issued into the network *)
      track : int;
      src : int;
      dst : int;
      port : int;
      was : string;  (** payload as sent *)
      became : string;  (** payload as delivered (one bit flipped) *)
    }
  | Corrupt_detected of {
      time : int;  (** arrival time; the packet is discarded *)
      track : int;
      src : int;
      dst : int;
      port : int;
      seq : int;  (** channel sequence number (0 without recovery) *)
    }
  | Corrupt_healed of {
      time : int;  (** arrival time of the clean retransmitted copy *)
      track : int;
      src : int;
      dst : int;
      port : int;
      seq : int;
    }

val time : t -> int
val track : t -> int
