type t =
  | Fire of {
      time : int;
      dur : int;
      track : int;
      node : int;
      label : string;
      op : string;
    }
  | Deliver of {
      time : int;
      track : int;
      src : int;
      dst : int;
      port : int;
      value : string;
    }
  | Ack of { time : int; track : int; src : int; dst : int }
  | Stall of {
      time : int;
      track : int;
      node : int;
      label : string;
      reason : string;
    }
  | Fault_injected of {
      time : int;
      track : int;
      kind : string;
      src : int;
      dst : int;
      extra : int;
    }
  | Violation of {
      time : int;
      track : int;
      node : int;
      label : string;
      kind : string;
      detail : string;
    }
  | Checkpoint of { time : int; track : int; seq : int; in_flight : int }
  | Recovery of {
      time : int;
      track : int;
      pe : int;
      restored_to : int;
      remapped : int;
    }
  | Retransmit of {
      time : int;
      track : int;
      src : int;
      dst : int;
      port : int;
      attempt : int;
    }
  | Corrupt_injected of {
      time : int;
      track : int;
      src : int;
      dst : int;
      port : int;
      was : string;
      became : string;
    }
  | Corrupt_detected of {
      time : int;
      track : int;
      src : int;
      dst : int;
      port : int;
      seq : int;
    }
  | Corrupt_healed of {
      time : int;
      track : int;
      src : int;
      dst : int;
      port : int;
      seq : int;
    }

let time = function
  | Fire { time; _ } | Deliver { time; _ } | Ack { time; _ }
  | Stall { time; _ } | Fault_injected { time; _ } | Violation { time; _ }
  | Checkpoint { time; _ } | Recovery { time; _ } | Retransmit { time; _ }
  | Corrupt_injected { time; _ } | Corrupt_detected { time; _ }
  | Corrupt_healed { time; _ } ->
    time

let track = function
  | Fire { track; _ } | Deliver { track; _ } | Ack { track; _ }
  | Stall { track; _ } | Fault_injected { track; _ } | Violation { track; _ }
  | Checkpoint { track; _ } | Recovery { track; _ } | Retransmit { track; _ }
  | Corrupt_injected { track; _ } | Corrupt_detected { track; _ }
  | Corrupt_healed { track; _ } ->
    track
